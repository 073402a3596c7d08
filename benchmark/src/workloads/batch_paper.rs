//! `batch_paper`: the paper's case-study pipelines.
//!
//! On the social-network surrogate (`servebench`'s parameters × 1.25,
//! largest component ≈6.7k nodes / ≈61k edges): `fiedler_vector` +
//! `sweep_cut` on v₂, `ncp_local_spectral`, and `ncp_metis_mqi`. On
//! the `serve_mutate` R-MAT: `pagerank_power` and
//! `heat_kernel_chebyshev`. Lanczos reorthogonalization, SpMV, and
//! multilevel + MQI each dominate one stage and appear in no serving
//! workload.
//!
//! Both graphs are datasets (see `graphs::INSTANCE`); `--seed` draws
//! the diffusion seed nodes and the NCP sample.

use super::{timed_setup, Cx};
use crate::graphs::{csr_bytes_per_edge, rmat_lcc, social_lcc};
use crate::layers::exec_region_us;
use crate::report::{rss_peak_mb, Report};
use crate::schedule::{rng_for, tag};
use crate::spans::Tracer;
use crate::stats;
use acir_flow::mqi;
use acir_graph::{Graph, NodeId};
use acir_linalg::lanczos::smallest_eigenpairs;
use acir_linalg::{vector, CsrMatrix, LinOp};
use acir_local::sweep::set_conductance;
use acir_local::sweep_cut;
use acir_partition::{
    multilevel_bisect, ncp_local_spectral, ncp_metis_mqi, MultilevelOptions, NcpOptions, NcpPoint,
};
use acir_spectral::{
    fiedler_vector, heat_kernel_chebyshev, normalized_laplacian, pagerank_power,
    trivial_eigenvector, Seed,
};
use rand::Rng;
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Tolerance `fiedler_s` is a time-to: `‖𝓛v − λ₂v‖₂` below this.
pub const FIEDLER_TOL: f64 = 1e-8;

/// PageRank teleportation γ and sweeps per job.
pub const PAGERANK: (f64, usize) = (0.05, 100);

/// Heat-kernel time `t` and Chebyshev degree per job.
pub const HEAT: (f64, usize) = (10.0, 60);

/// Sizes of one pass.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Scale of the surrogate over `servebench`'s parameters.
    pub social_scale: f64,
    /// `(R-MAT scale, edge factor)` of the diffusion graph.
    pub rmat: (u32, usize),
    /// Seeds of `ncp_local_spectral`.
    pub ncp_seeds: usize,
    /// `pagerank_power` jobs per pass.
    pub pagerank_jobs: usize,
    /// `heat_kernel_chebyshev` jobs per pass.
    pub heat_jobs: usize,
}

/// The pass of the full and of the smoke size.
pub fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            social_scale: 0.15,
            rmat: (12, 10),
            ncp_seeds: 8,
            pagerank_jobs: 2,
            heat_jobs: 1,
        }
    } else {
        Sizes {
            social_scale: 1.25,
            rmat: (17, 10),
            ncp_seeds: 32,
            pagerank_jobs: 8,
            heat_jobs: 2,
        }
    }
}

/// The two graphs of the workload.
pub struct Graphs {
    /// The surrogate instance (Fiedler, NCP).
    pub social: Graph,
    /// The R-MAT largest component (diffusions).
    pub rmat: Graph,
}

/// Generate both graphs and assemble the surrogate's Laplacian once,
/// as a user's set-up would.
pub fn build(cx: &Cx) -> Graphs {
    let sz = sizes(cx.smoke);
    let social = social_lcc(tag::GRAPH, sz.social_scale);
    let rmat = rmat_lcc(tag::GRAPH, sz.rmat.0, sz.rmat.1);
    std::hint::black_box(normalized_laplacian(&social));
    Graphs { social, rmat }
}

/// NCP options of both pipelines: the default α/ε grid, clusters up
/// to half the graph.
pub fn ncp_options(cx: &Cx, g: &Graph) -> NcpOptions {
    NcpOptions {
        max_size: g.n() / 2,
        seeds: sizes(cx.smoke).ncp_seeds,
        threads: 2,
        rng_seed: cx.seed,
        ..NcpOptions::default()
    }
}

/// Seconds each stage of one pass took, and what its checks found.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pass {
    /// `fiedler_vector` + `sweep_cut` on v₂.
    pub fiedler_s: f64,
    /// `ncp_local_spectral`.
    pub ncp_local_s: f64,
    /// `ncp_metis_mqi`.
    pub ncp_flow_s: f64,
    /// The PageRank and heat-kernel jobs.
    pub diffusion_s: f64,
    /// Of `diffusion_s`, the PageRank jobs.
    pub pagerank_s: f64,
    /// `‖𝓛v − λ₂v‖₂`, recomputed outside the library.
    pub fiedler_residual: f64,
    /// `λ₂`.
    pub lambda2: f64,
    /// Best conductance of the local profile.
    pub min_phi_local: f64,
    /// Best conductance of the flow profile.
    pub min_phi_flow: f64,
    /// Conductance of the sweep cut of v₂.
    pub fiedler_phi: f64,
}

impl Pass {
    /// Seconds of the whole pass.
    pub fn total_s(&self) -> f64 {
        self.fiedler_s + self.ncp_local_s + self.ncp_flow_s + self.diffusion_s
    }
}

/// Run `f` under a span named `name`; returns its value and seconds.
fn timed<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = tracer.begin(name, None);
    let t = Instant::now();
    let v = f();
    let s = t.elapsed().as_secs_f64();
    tracer.end(span);
    (v, s)
}

/// `‖𝓛v − λv‖₂`, with the Laplacian assembled here.
pub fn eigen_residual(g: &Graph, lambda: f64, v: &[f64]) -> f64 {
    let nl = normalized_laplacian(g);
    let mut r = vec![0.0; g.n()];
    nl.matvec(v, &mut r);
    vector::axpy(-lambda, v, &mut r);
    vector::norm2(&r)
}

fn min_phi(points: &[NcpPoint]) -> f64 {
    points
        .iter()
        .map(|p| p.conductance)
        .fold(f64::INFINITY, f64::min)
}

/// Every profile point is finite and reports the conductance its set
/// really has.
pub fn profile_ok(g: &Graph, points: &[NcpPoint]) -> bool {
    !points.is_empty()
        && points.iter().all(|p| {
            p.conductance.is_finite() && (p.conductance - set_conductance(g, &p.set)).abs() <= 1e-9
        })
}

/// Run one pass, each stage under a span of `tracer`; stage outputs
/// are checked outside the timed calls and each check counts as one
/// operation of `report`.
pub fn pass(cx: &Cx, graphs: &Graphs, tracer: &mut Tracer, report: &mut Report) -> Pass {
    let sz = sizes(cx.smoke);
    let mut out = Pass::default();
    let g = &graphs.social;

    let (fiedler, s) = timed(tracer, "spectral.fiedler_vector", || {
        fiedler_vector(g).expect("the surrogate's largest component is connected")
    });
    let (cut, s_cut) = timed(tracer, "local.sweep_cut", || sweep_cut(g, &fiedler.vector));
    out.fiedler_s = s + s_cut;
    out.lambda2 = fiedler.lambda2;
    out.fiedler_phi = cut.conductance;
    out.fiedler_residual = eigen_residual(g, fiedler.lambda2, &fiedler.vector);
    report.check(
        "fiedler residual below tolerance",
        out.fiedler_residual < FIEDLER_TOL && cut.conductance.is_finite(),
    );

    let opts = ncp_options(cx, g);
    let (local, s) = timed(tracer, "partition.ncp_local_spectral", || {
        ncp_local_spectral(g, &opts).expect("valid NCP options")
    });
    out.ncp_local_s = s;
    out.min_phi_local = min_phi(&local);
    report.check("local profile conductances", profile_ok(g, &local));

    let (flow, s) = timed(tracer, "partition.ncp_metis_mqi", || {
        ncp_metis_mqi(g, &opts).expect("valid NCP options")
    });
    out.ncp_flow_s = s;
    out.min_phi_flow = min_phi(&flow);
    report.check("flow profile conductances", profile_ok(g, &flow));

    let r = &graphs.rmat;
    let mut rng = rng_for(cx.seed, tag::QUERIES);
    let mut node = || Seed::Node(rng.gen_range(0..r.n() as NodeId));
    let pr_seeds: Vec<Seed> = (0..sz.pagerank_jobs).map(|_| node()).collect();
    let hk_seeds: Vec<Seed> = (0..sz.heat_jobs).map(|_| node()).collect();
    let (ranks, s) = timed(tracer, "spectral.pagerank_power", || {
        pr_seeds
            .iter()
            .map(|s| pagerank_power(r, PAGERANK.0, s, PAGERANK.1).expect("valid PageRank job"))
            .collect::<Vec<_>>()
    });
    out.pagerank_s = s;
    let (heats, s) = timed(tracer, "spectral.heat_kernel_chebyshev", || {
        hk_seeds
            .iter()
            .map(|s| heat_kernel_chebyshev(r, HEAT.0, s, HEAT.1).expect("valid heat-kernel job"))
            .collect::<Vec<_>>()
    });
    out.diffusion_s = out.pagerank_s + s;
    report.check(
        "pagerank iterates sum to 1",
        ranks
            .iter()
            .all(|(x, _)| (x.iter().sum::<f64>() - 1.0).abs() <= 1e-9),
    );
    report.check(
        "heat-kernel vectors are finite",
        heats.iter().all(|x| x.iter().all(|v| v.is_finite())),
    );
    out
}

/// Passes until `seconds` have gone by, at least one.
pub fn passes(cx: &Cx, graphs: &Graphs, seconds: f64, report: &mut Report) -> Vec<Pass> {
    let start = Instant::now();
    let mut off = Tracer::new(false, 0);
    let mut done = Vec::new();
    while done.is_empty() || start.elapsed().as_secs_f64() < seconds {
        done.push(pass(cx, graphs, &mut off, report));
    }
    done
}

/// Median over passes of one reading.
pub fn over(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    stats::median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// End-to-end run: an operation is one pass over the four pipelines.
pub fn e2e(cx: &Cx) -> Report {
    let mut report = Report::default();
    let (graphs, setup_s) = timed_setup(|| build(cx));
    report.set("setup_s", setup_s);
    let done = passes(cx, &graphs, cx.seconds, &mut report);
    report.count("passes", done.len());

    let pass_ms: Vec<f64> = done.iter().map(|p| p.total_s() * 1e3).collect();
    let pass_s = over(&done, Pass::total_s);
    report.set("ops_per_s", 1.0 / pass_s);
    report.set("lat_p50_ms", stats::median(&pass_ms));
    // A few passes support no tail: by the ten-beyond rule this is the median.
    report.set("lat_tail_ms", stats::tail(&pass_ms).1);
    report.set(
        "slo_share",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set("rss_peak_mb", rss_peak_mb());
    report.note("fiedler_s", over(&done, |p| p.fiedler_s), "s");
    report.note("diffusion_s", over(&done, |p| p.diffusion_s), "s");
    report.note("ncp_local_s", over(&done, |p| p.ncp_local_s), "s");
    report.note("ncp_flow_s", over(&done, |p| p.ncp_flow_s), "s");
    report.note("fiedler_residual", done[0].fiedler_residual, "norm");
    report.note("lambda2", done[0].lambda2, "value");
    report.note("min_phi_local", done[0].min_phi_local, "value");
    report.note("min_phi_flow", done[0].min_phi_flow, "value");
    report.note("social.n", graphs.social.n() as f64, "count");
    report.note("social.m", graphs.social.m() as f64, "count");
    report.note("rmat.n", graphs.rmat.n() as f64, "count");
    report.note("rmat.m", graphs.rmat.m() as f64, "count");
    report
}

/// A `LinOp` that counts and times the applications of another.
struct Metered<'a> {
    inner: &'a CsrMatrix,
    calls: Cell<usize>,
    busy: Cell<Duration>,
}

impl LinOp for Metered<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let t = Instant::now();
        self.inner.apply(x, y);
        self.busy.set(self.busy.get() + t.elapsed());
        self.calls.set(self.calls.get() + 1);
    }
}

/// Krylov dimension of the bare Lanczos measurement.
pub const LANCZOS_KRYLOV: usize = 512;

/// `linalg.lanczos_*`: one `smallest_eigenpairs` at a fixed Krylov
/// dimension through a metering operator; what is not operator time
/// is reorthogonalization and the Ritz lift.
fn set_lanczos_metrics(report: &mut Report, g: &Graph) {
    let nl = normalized_laplacian(g);
    let op = Metered {
        inner: &nl,
        calls: Cell::new(0),
        busy: Cell::new(Duration::ZERO),
    };
    let v1 = trivial_eigenvector(g);
    let t = Instant::now();
    let r = smallest_eigenpairs(&op, 1, LANCZOS_KRYLOV.min(g.n()), std::slice::from_ref(&v1));
    let total = t.elapsed().as_secs_f64();
    report.check(
        "lanczos returns a finite eigenvalue",
        r.is_ok_and(|(vals, _)| vals.first().is_some_and(|v| v.is_finite())),
    );
    report.set("linalg.lanczos_s", total);
    report.set("linalg.lanczos_matvecs", op.calls.get() as f64);
    report.set(
        "linalg.lanczos_op_share",
        op.busy.get().as_secs_f64() / total,
    );
}

/// `linalg.spmv_*`: `CsrMatrix::matvec` on the R-MAT Laplacian. Bytes
/// per nonzero are computed from the array sizes (8 B value + 4 B
/// column per nonzero, 8 B offset and two 8 B vector entries per row);
/// the arrays are far below four times the last-level cache, so no
/// bandwidth ratio is claimed.
fn set_spmv_metrics(report: &mut Report, g: &Graph) {
    let nl = normalized_laplacian(g);
    let n = nl.nrows();
    let x: Vec<f64> = (0..n).map(|i| 1.0 / (1 + i % 17) as f64).collect();
    let mut y = vec![0.0; n];
    let times: Vec<f64> = (0..40)
        .map(|_| {
            let t = Instant::now();
            nl.matvec(&x, &mut y);
            std::hint::black_box(&mut y);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let ms = stats::median(&times);
    report.set("linalg.spmv_ms_p50", ms);
    report.set("linalg.spmv_gnnz_s", nl.nnz() as f64 / (ms * 1e-3) / 1e9);
    report.set(
        "linalg.spmv_bytes_per_nnz",
        (nl.nnz() * 12 + (n + 1) * 8 + 2 * n * 8) as f64 / nl.nnz() as f64,
    );
}

/// Bisections cut and improved for `partition.multilevel_ms` and
/// `flow.mqi_*`.
pub const BISECTIONS: u64 = 3;

/// `partition.multilevel_ms` and `flow.mqi_*`: `multilevel_bisect`
/// under [`BISECTIONS`] matching seeds, each smaller side improved by
/// `mqi`.
fn set_flow_metrics(report: &mut Report, g: &Graph) {
    let (mut cut_ms, mut mqi_ms) = (Vec::new(), Vec::new());
    for k in 0..BISECTIONS {
        let opts = MultilevelOptions {
            seed: MultilevelOptions::default().seed + k,
            ..MultilevelOptions::default()
        };
        let t = Instant::now();
        let b = multilevel_bisect(g, &opts).expect("the surrogate has two nodes and volume");
        cut_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let side = |a: bool| -> Vec<NodeId> {
            (0..g.n() as NodeId)
                .filter(|&u| b.side[u as usize] == a)
                .collect()
        };
        let a = side(true);
        let small = if g.volume(&a) <= g.total_volume() / 2.0 {
            a
        } else {
            side(false)
        };
        let t = Instant::now();
        let r = mqi(g, &small);
        mqi_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.check(
            "mqi does not worsen the side it improves",
            r.is_ok_and(|r| r.conductance <= r.initial_conductance + 1e-12),
        );
    }
    report.set("partition.multilevel_ms", stats::median(&cut_ms));
    report.set("flow.mqi_ms_p50", stats::median(&mqi_ms));
    report.set("flow.mqi_calls", mqi_ms.len() as f64);
}

/// Traced run: one pass with tracing off and one with a span around
/// every stage, then each stage's dominant kernel measured bare.
pub fn traced(cx: &Cx, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let sz = sizes(cx.smoke);
    let t = Instant::now();
    let graphs = build(cx);
    report.set("graph.gen_s", t.elapsed().as_secs_f64());
    report.set("graph.csr_bytes_per_edge", csr_bytes_per_edge(&graphs.rmat));

    let untraced = pass(
        cx,
        &graphs,
        &mut Tracer::new(false, 0),
        &mut Report::default(),
    );
    let p = pass(cx, &graphs, tracer, &mut report);
    report.count("passes", 2);
    report.set(
        "trace.overhead_share",
        (p.total_s() - untraced.total_s()) / untraced.total_s(),
    );
    report.set("spectral.fiedler_s", p.fiedler_s);
    report.set("spectral.fiedler_residual", p.fiedler_residual);
    report.set("spectral.lambda2", p.lambda2);
    report.set("spectral.diffusion_s", p.diffusion_s);
    report.set(
        "spectral.pagerank_ms_per_sweep",
        p.pagerank_s * 1e3 / (sz.pagerank_jobs * PAGERANK.1) as f64,
    );
    report.set(
        "spectral.heat_kernel_ms",
        (p.diffusion_s - p.pagerank_s) * 1e3 / sz.heat_jobs as f64,
    );
    let opts = ncp_options(cx, &graphs.social);
    let runs = opts.seeds * opts.alphas.len() * opts.epsilons.len();
    report.set("partition.ncp_local_s", p.ncp_local_s);
    report.set("partition.ncp_local_runs", runs as f64);
    report.set(
        "partition.ncp_local_ms_per_run",
        p.ncp_local_s * 1e3 / runs as f64,
    );
    report.set("partition.ncp_flow_s", p.ncp_flow_s);
    report.set("partition.min_phi_local", p.min_phi_local);
    report.set("partition.min_phi_flow", p.min_phi_flow);

    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(normalized_laplacian(&graphs.social));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.set("spectral.laplacian_ms", stats::median(&times));
    set_spmv_metrics(&mut report, &graphs.rmat);
    set_lanczos_metrics(&mut report, &graphs.social);
    set_flow_metrics(&mut report, &graphs.social);
    report.set("exec.region_us", exec_region_us());
    report
}
