//! Push–relabel maximum flow (Goldberg–Tarjan), with the gap and
//! global-relabel heuristics.
//!
//! A second, independently implemented max-flow algorithm. Its purpose
//! here is twofold: it gives the flow substrate a high-performance
//! option for the dense MQI networks (push–relabel tends to beat
//! augmenting paths on graphs with large capacities), and — more
//! importantly for a reproduction — it lets property tests cross-check
//! two entirely different algorithms against each other on random
//! networks, which is how the flow layer earns its trust.

use crate::maxflow::{FlowExit, MaxFlowResult};
use crate::{FlowError, Result};
use acir_runtime::{Certificate, DivergenceCause, GuardConfig, KernelCtx, SolverOutcome};
use std::collections::VecDeque;

const EPS: f64 = 1e-9;

/// A flow network for the push–relabel solver (same arc-pair layout as
/// [`crate::FlowNetwork`]: arc `i ^ 1` is the reverse of arc `i`).
#[derive(Debug, Clone)]
pub struct PushRelabelNetwork {
    to: Vec<u32>,
    cap: Vec<f64>,
    head: Vec<Vec<u32>>,
}

impl PushRelabelNetwork {
    /// Network with `n` nodes.
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

    /// Add a directed arc with capacity `cap` (reverse capacity 0).
    pub fn add_arc(&mut self, u: usize, v: usize, cap: f64) -> Result<()> {
        self.add_arc_pair(u, v, cap, 0.0)
    }

    /// Add an undirected edge (equal capacity both ways).
    pub fn add_edge(&mut self, u: usize, v: usize, cap: f64) -> Result<()> {
        self.add_arc_pair(u, v, cap, cap)
    }

    fn add_arc_pair(&mut self, u: usize, v: usize, fwd: f64, bwd: f64) -> Result<()> {
        let n = self.n();
        if u >= n || v >= n {
            return Err(FlowError::InvalidArgument(format!(
                "arc ({u},{v}) out of range for {n} nodes"
            )));
        }
        if !(fwd.is_finite() && fwd >= 0.0 && bwd.is_finite() && bwd >= 0.0) {
            return Err(FlowError::InvalidArgument(
                "capacities must be finite and nonnegative".into(),
            ));
        }
        let i = self.to.len() as u32;
        self.to.push(v as u32);
        self.cap.push(fwd);
        self.to.push(u as u32);
        self.cap.push(bwd);
        self.head[u].push(i);
        self.head[v].push(i + 1);
        Ok(())
    }

    /// Compute the max `s → t` flow (mutates residual capacities).
    pub fn max_flow(&mut self, s: usize, t: usize) -> Result<MaxFlowResult> {
        // The guard keeps the legacy sink-excess finiteness check alive
        // on the plain path; everything else in the context is inert.
        let mut ctx = KernelCtx::new().with_guard(GuardConfig::contamination_only());
        match self.max_flow_ctx(s, t, &mut ctx)? {
            SolverOutcome::Converged { value, .. } => Ok(value),
            // An inert context never exhausts.
            SolverOutcome::BudgetExhausted { best_so_far, .. } => Ok(best_so_far),
            SolverOutcome::Diverged { cause, .. } => Err(FlowError::InvalidArgument(format!(
                "push-relabel halted: {cause}"
            ))),
        }
    }

    /// [`max_flow`](Self::max_flow) under an explicit [`KernelCtx`]:
    /// the same discharge loop with metering, guarding, and tracing
    /// routed through the context.
    ///
    /// A metered context charges each node discharge one budget
    /// iteration plus its arc scans as work units. Push–relabel
    /// maintains a *preflow*, but the excess already collected at `t`
    /// decomposes into feasible `s → t` paths, so on exhaustion it is a
    /// valid lower bound on the maximum flow; the witnessed trivial cut
    /// `min(cap out of s, cap into t)` bounds it from above — a
    /// [`Certificate::FlowGap`]. The `source_side` of a partial result is
    /// residual reachability from `s` at the moment the budget ran out.
    /// Under a guard (consulted only for the sink-excess finiteness
    /// check after each discharge), a non-finite sink excess halts the
    /// run as [`SolverOutcome::Diverged`].
    pub fn max_flow_ctx(
        &mut self,
        s: usize,
        t: usize,
        ctx: &mut KernelCtx,
    ) -> Result<SolverOutcome<MaxFlowResult>> {
        let (value, exit) = self.max_flow_core(s, t, ctx)?;
        let diags = ctx.finish();
        Ok(match exit {
            FlowExit::Done => SolverOutcome::converged(
                MaxFlowResult {
                    value,
                    source_side: self.residual_reachable(s),
                },
                diags,
            ),
            FlowExit::Exhausted { exhausted, upper } => SolverOutcome::exhausted(
                MaxFlowResult {
                    value,
                    source_side: self.residual_reachable(s),
                },
                exhausted,
                Certificate::FlowGap {
                    value,
                    upper_bound: upper,
                },
                diags,
            ),
            FlowExit::Diverged(cause) => SolverOutcome::diverged(cause, diags),
        })
    }

    /// Run the discharge loop under `ctx`; returns the sink excess (the
    /// flow value so far) and the exit condition.
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
        // Witnessed trivial cuts on the original capacities.
        let out_s: f64 = self.head[s].iter().map(|&ai| self.cap[ai as usize]).sum();
        let in_t: f64 = self.head[t]
            .iter()
            .map(|&ai| self.cap[(ai ^ 1) as usize])
            .sum();
        let upper = out_s.min(in_t);

        let mut height = vec![0usize; n];
        let mut excess = vec![0.0f64; n];
        let mut count = vec![0usize; 2 * n + 1]; // nodes per height (gap heuristic)
        let mut cursor = vec![0usize; n];
        let mut active: VecDeque<usize> = VecDeque::new();
        let mut in_queue = vec![false; n];

        // Global relabel: heights = BFS distance to t in the residual.
        let global_relabel = |cap: &[f64],
                              to: &[u32],
                              head: &[Vec<u32>],
                              height: &mut [usize],
                              count: &mut [usize]| {
            for h in count.iter_mut() {
                *h = 0;
            }
            for h in height.iter_mut() {
                *h = 2 * n; // unreachable marker
            }
            height[t] = 0;
            let mut q = VecDeque::new();
            q.push_back(t);
            while let Some(u) = q.pop_front() {
                for &ai in &head[u] {
                    // Arc u→v in residual of reverse direction: v can
                    // reach u if cap[ai ^ 1] > 0 (arc v→u has residual).
                    let v = to[ai as usize] as usize;
                    if height[v] == 2 * n && cap[(ai ^ 1) as usize] > EPS {
                        height[v] = height[u] + 1;
                        q.push_back(v);
                    }
                }
            }
            height[s] = n;
            for &h in height.iter() {
                if h <= 2 * n {
                    count[h.min(2 * n)] += 1;
                }
            }
        };
        global_relabel(&self.cap, &self.to, &self.head, &mut height, &mut count);

        // Saturate source arcs.
        let src_arcs: Vec<u32> = self.head[s].clone();
        for ai in src_arcs {
            let ai = ai as usize;
            let v = self.to[ai] as usize;
            let c = self.cap[ai];
            if c > EPS {
                self.cap[ai] = 0.0;
                self.cap[ai ^ 1] += c;
                excess[v] += c;
                if v != t && v != s && !in_queue[v] {
                    active.push_back(v);
                    in_queue[v] = true;
                }
            }
        }

        let mut work = 0usize;
        let relabel_interval = 6 * n + self.to.len() / 2 + 1;
        let mut discharges = 0usize;
        // CORE LOOP
        while let Some(u) = active.pop_front() {
            discharges += 1;
            ctx.tick_iter();
            ctx.add_work(self.head[u].len() as u64);
            if let Some(exhausted) = ctx.check_budget() {
                ctx.note_with(|| {
                    format!(
                        "{exhausted} after {discharges} discharges; returning sink excess as partial flow"
                    )
                });
                return Ok((excess[t], FlowExit::Exhausted { exhausted, upper }));
            }
            if ctx.is_guarded() && !excess[t].is_finite() {
                return Ok((
                    excess[t],
                    FlowExit::Diverged(DivergenceCause::NonFiniteIterate {
                        at_iter: discharges,
                    }),
                ));
            }
            in_queue[u] = false;
            // Discharge u.
            while excess[u] > EPS {
                if cursor[u] == self.head[u].len() {
                    // Relabel.
                    let old = height[u];
                    let mut best = usize::MAX;
                    for &ai in &self.head[u] {
                        if self.cap[ai as usize] > EPS {
                            best = best.min(height[self.to[ai as usize] as usize] + 1);
                        }
                    }
                    if best == usize::MAX || best >= 2 * n {
                        height[u] = 2 * n;
                        break; // disconnected from t and s in residual
                    }
                    // Gap heuristic: if u's old level empties, everything
                    // above it (below n) is cut off from t.
                    if old < n {
                        count[old] -= 1;
                        if count[old] == 0 {
                            for (w, h) in height.iter_mut().enumerate() {
                                if w != s && *h > old && *h < n {
                                    count[*h] -= 1;
                                    *h = n + 1;
                                    count[(n + 1).min(2 * n)] += 1;
                                }
                            }
                        }
                        count[best.min(2 * n)] += 1;
                    }
                    height[u] = best;
                    cursor[u] = 0;
                    work += self.head[u].len();
                    if work > relabel_interval {
                        global_relabel(&self.cap, &self.to, &self.head, &mut height, &mut count);
                        work = 0;
                    }
                    continue;
                }
                let ai = self.head[u][cursor[u]] as usize;
                let v = self.to[ai] as usize;
                if self.cap[ai] > EPS && height[u] == height[v] + 1 {
                    // Push.
                    let delta = excess[u].min(self.cap[ai]);
                    self.cap[ai] -= delta;
                    self.cap[ai ^ 1] += delta;
                    excess[u] -= delta;
                    excess[v] += delta;
                    if v != s && v != t && !in_queue[v] {
                        active.push_back(v);
                        in_queue[v] = true;
                    }
                } else {
                    cursor[u] += 1;
                }
            }
        }

        // Flow value = excess collected at t; min-cut side = nodes that
        // reach t... conventionally: source side = nodes NOT reaching t
        // in the residual, computed as residual-reachability from s.
        ctx.note_with(|| format!("preflow drained after {discharges} discharges"));
        ctx.push_residual((upper - excess[t]).max(0.0));
        Ok((excess[t], FlowExit::Done))
    }

    /// Nodes reachable from `s` in the current residual network.
    fn residual_reachable(&self, s: usize) -> Vec<bool> {
        let mut side = vec![false; self.n()];
        side[s] = true;
        let mut q = VecDeque::new();
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for &ai in &self.head[u] {
                let v = self.to[ai as usize] as usize;
                if self.cap[ai as usize] > EPS && !side[v] {
                    side[v] = true;
                    q.push_back(v);
                }
            }
        }
        side
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxflow::FlowNetwork;
    use acir_runtime::Budget;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A metered context with the contamination guard.
    fn budgeted(budget: &Budget) -> KernelCtx {
        KernelCtx::budgeted("flow.push_relabel", budget)
            .with_guard(GuardConfig::contamination_only())
    }

    #[test]
    fn classic_diamond() {
        let mut net = PushRelabelNetwork::new(4);
        net.add_arc(0, 1, 3.0).unwrap();
        net.add_arc(0, 2, 2.0).unwrap();
        net.add_arc(1, 2, 1.0).unwrap();
        net.add_arc(1, 3, 2.0).unwrap();
        net.add_arc(2, 3, 3.0).unwrap();
        let r = net.max_flow(0, 3).unwrap();
        assert!((r.value - 5.0).abs() < 1e-9);
    }

    #[test]
    fn series_and_disconnect() {
        let mut net = PushRelabelNetwork::new(3);
        net.add_arc(0, 1, 5.0).unwrap();
        net.add_arc(1, 2, 2.0).unwrap();
        let r = net.max_flow(0, 2).unwrap();
        assert!((r.value - 2.0).abs() < 1e-9);
        assert_eq!(r.source_side, vec![true, true, false]);

        let mut net = PushRelabelNetwork::new(4);
        net.add_arc(0, 1, 1.0).unwrap();
        net.add_arc(2, 3, 1.0).unwrap();
        let r = net.max_flow(0, 3).unwrap();
        assert_eq!(r.value, 0.0);
    }

    #[test]
    fn validates() {
        let mut net = PushRelabelNetwork::new(2);
        assert!(net.add_arc(0, 9, 1.0).is_err());
        assert!(net.add_arc(0, 1, -1.0).is_err());
        net.add_arc(0, 1, 1.0).unwrap();
        assert!(net.max_flow(0, 0).is_err());
        assert!(net.max_flow(0, 7).is_err());
    }

    #[test]
    fn agrees_with_dinic_on_random_networks() {
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..30 {
            let n = rng.gen_range(4..20);
            let m = rng.gen_range(n..4 * n);
            let mut dinic = FlowNetwork::new(n);
            let mut pr = PushRelabelNetwork::new(n);
            for _ in 0..m {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u == v {
                    continue;
                }
                let c = rng.gen_range(0.0..10.0);
                dinic.add_arc(u, v, c).unwrap();
                pr.add_arc(u, v, c).unwrap();
            }
            let s = 0;
            let t = n - 1;
            let a = dinic.max_flow(s, t).unwrap();
            let b = pr.max_flow(s, t).unwrap();
            assert!(
                (a.value - b.value).abs() < 1e-6,
                "trial {trial}: dinic {} vs push-relabel {}",
                a.value,
                b.value
            );
        }
    }

    #[test]
    fn budgeted_unlimited_matches_plain() {
        let mut net = PushRelabelNetwork::new(4);
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
        assert!(!out.diagnostics().events.is_empty());
    }

    #[test]
    fn budgeted_exhaustion_certificate_brackets_max_flow() {
        // A long chain forces many discharges; starve the budget.
        let n = 40;
        let mut net = PushRelabelNetwork::new(n);
        for u in 0..n - 1 {
            net.add_arc(u, u + 1, 2.0).unwrap();
        }
        let out = net
            .max_flow_ctx(0, n - 1, &mut budgeted(&Budget::iterations(3)))
            .unwrap();
        assert!(!out.is_converged() && out.is_usable());
        let (lo, hi) = match out.certificate() {
            Some(&Certificate::FlowGap { value, upper_bound }) => (value, upper_bound),
            c => panic!("wrong certificate {c:?}"),
        };
        // True max flow is 2.0: the partial must not exceed it, the
        // witnessed cut must not undershoot it.
        assert!(lo <= 2.0 + 1e-9 && 2.0 <= hi + 1e-9, "[{lo}, {hi}]");
        assert_eq!(out.value().unwrap().value, lo);
        assert!(!out.diagnostics().events.is_empty());
    }

    #[test]
    fn budgeted_deadline_axis_fires() {
        use std::time::Duration;
        let n = 60;
        let mut net = PushRelabelNetwork::new(n);
        for u in 0..n - 1 {
            net.add_arc(u, u + 1, 1.0).unwrap();
        }
        // A zero deadline exhausts on the very first discharge.
        let out = net
            .max_flow_ctx(0, n - 1, &mut budgeted(&Budget::deadline(Duration::ZERO)))
            .unwrap();
        assert!(!out.is_converged() && out.is_usable());
        assert!(matches!(
            out,
            SolverOutcome::BudgetExhausted {
                exhausted: acir_runtime::Exhaustion::Deadline,
                ..
            }
        ));
    }

    #[test]
    fn undirected_edges_and_cut_side() {
        // Two triangles + unit bridge (same as the Dinic test).
        let mut net = PushRelabelNetwork::new(6);
        for &(u, v) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            net.add_edge(u, v, 1.0).unwrap();
        }
        net.add_edge(2, 3, 1.0).unwrap();
        let r = net.max_flow(0, 5).unwrap();
        assert!((r.value - 1.0).abs() < 1e-9);
        assert_eq!(r.source_side, vec![true, true, true, false, false, false]);
    }
}
