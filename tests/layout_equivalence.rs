//! Bitwise equivalence of the pluggable SpMV layouts.
//!
//! The `SparseLayout` contract (`acir_linalg::layout`) says every
//! layout — scalar CSR, unrolled CSR, SELL-C-σ, merge-based — produces
//! **bit-identical** products at every thread count, because each
//! output element is accumulated strictly left-to-right over its row.
//! This binary pins that contract:
//!
//! * a proptest matrix over random sparse matrices (including empty
//!   rows, isolated columns, rectangular shapes, and row counts that
//!   leave a ragged final SELL slice) comparing `matvec` and
//!   `matvec_transpose` across all layouts;
//! * hostile values: an `∞` in `x` at a column only padding could
//!   touch must not surface as NaN (SELL never multiplies padding);
//! * cache invalidation: mutating a matrix after a SELL/merge product
//!   rebuilds the derived layouts;
//! * selection plumbing: the `ACIR_SPMV_LAYOUT` env var, the
//!   thread-local scope, and `KernelCtx::with_spmv_layout` all route —
//!   and all agree bitwise. (Every env-flipping assertion lives in the
//!   single `#[test]` below it; tests in one binary run concurrently
//!   and would otherwise race on the process-global variable.)

use acir_graph::traversal::largest_component;
use acir_linalg::{spmv_layout_scope, CsrMatrix, SpmvLayout};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `A x` under an explicit layout scope.
fn mv(a: &CsrMatrix, x: &[f64], layout: SpmvLayout) -> Vec<f64> {
    let _scope = spmv_layout_scope(layout);
    let mut y = vec![0.0; a.nrows()];
    a.matvec(x, &mut y);
    y
}

/// `Aᵀ x` under an explicit layout scope.
fn mtv(a: &CsrMatrix, x: &[f64], layout: SpmvLayout) -> Vec<f64> {
    let _scope = spmv_layout_scope(layout);
    let mut y = vec![0.0; a.ncols()];
    a.matvec_transpose(x, &mut y);
    y
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Deterministic dense test vector with positive and negative entries
/// of varying magnitude (so reordered additions would actually differ).
fn probe_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (rng.gen() - 0.5) * 10f64.powi(rng.gen_range(-3..4)))
        .collect()
}

/// Random sparse matrix with deliberately nasty structure: duplicate
/// triplets (summed by construction), empty rows/columns, and shapes
/// that are not multiples of the SELL slice height.
fn arb_matrix() -> impl Strategy<Value = CsrMatrix> {
    (1usize..40, 1usize..40, 0u64..1_000_000).prop_map(|(nrows, ncols, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let nnz = rng.gen_range(0..nrows * ncols / 2 + 1);
        let triplets: Vec<(usize, usize, f64)> = (0..nnz)
            .map(|_| {
                (
                    rng.gen_range(0..nrows),
                    rng.gen_range(0..ncols),
                    (rng.gen() - 0.5) * 10f64.powi(rng.gen_range(-2..3)),
                )
            })
            .collect();
        CsrMatrix::from_triplets(nrows, ncols, triplets)
    })
}

const ALT: [SpmvLayout; 4] = [
    SpmvLayout::Unrolled,
    SpmvLayout::Sell,
    SpmvLayout::Merge,
    SpmvLayout::Auto,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// matvec / matvec_transpose agree bitwise with the scalar CSR path
    /// on every alternate layout.
    #[test]
    fn products_bitwise_identical_across_layouts(a in arb_matrix(), vseed in 0u64..1000) {
        let x = probe_vector(a.ncols(), vseed);
        let xt = probe_vector(a.nrows(), vseed ^ 0x9e37);

        let y_csr = mv(&a, &x, SpmvLayout::Csr);
        let yt_csr = mtv(&a, &xt, SpmvLayout::Csr);
        for layout in ALT {
            prop_assert_eq!(bits(&y_csr), bits(&mv(&a, &x, layout)), "matvec {}", layout);
            prop_assert_eq!(bits(&yt_csr), bits(&mtv(&a, &xt, layout)), "transpose {}", layout);
        }
    }

    /// Mutators invalidate the cached derived layouts: a product after
    /// `scale` matches a freshly built matrix bitwise on every layout.
    #[test]
    fn mutation_invalidates_cached_layouts(a in arb_matrix(), vseed in 0u64..1000) {
        let x = probe_vector(a.ncols(), vseed);
        let mut m = a.clone();
        // Populate the caches on the original copy.
        for layout in ALT {
            std::hint::black_box(mv(&m, &x, layout));
        }
        m.scale(-3.0);
        let mut fresh = a.clone();
        fresh.scale(-3.0);
        for layout in ALT {
            prop_assert_eq!(
                bits(&mv(&fresh, &x, SpmvLayout::Csr)),
                bits(&mv(&m, &x, layout)),
                "stale cache on {}",
                layout
            );
        }
    }
}

/// SELL padding must never be multiplied: an `∞` (or NaN) sitting at a
/// column index that only padding slots reference cannot contaminate
/// any output. Column 0 is the padding sentinel index, so a matrix
/// whose real entries all avoid column 0 is the sharpest probe.
#[test]
fn sell_padding_never_touches_poisoned_columns() {
    // 17 rows (ragged final slice), very different row lengths so
    // every slice has padding or inactive-lane tails.
    let mut triplets = Vec::new();
    for r in 0..17usize {
        for j in 0..(r % 5) * 3 {
            triplets.push((r, 1 + (r * 7 + j * 3) % 30, 1.0 + (r + j) as f64));
        }
    }
    let a = CsrMatrix::from_triplets(17, 31, triplets);
    let mut x = probe_vector(31, 7);
    x[0] = f64::INFINITY;
    for layout in [SpmvLayout::Sell, SpmvLayout::Unrolled, SpmvLayout::Merge] {
        let y = mv(&a, &x, layout);
        assert!(
            y.iter().all(|v| v.is_finite()),
            "{layout}: poisoned column leaked into output: {y:?}"
        );
        assert_eq!(bits(&y), bits(&mv(&a, &x, SpmvLayout::Csr)));
    }
    // NaN in a *referenced* column must propagate identically instead.
    x[1] = f64::NAN;
    for layout in ALT {
        let y = mv(&a, &x, layout);
        let y_csr = mv(&a, &x, SpmvLayout::Csr);
        assert_eq!(bits(&y), bits(&y_csr), "{layout}: NaN propagation differs");
    }
}

/// Degenerate shapes the slicing/merging math must survive.
#[test]
fn degenerate_shapes_are_bitwise_identical() {
    let cases: Vec<CsrMatrix> = vec![
        // Entirely empty matrix.
        CsrMatrix::from_triplets(5, 5, []),
        // One row, many entries (single ragged SELL slice; one merge part).
        CsrMatrix::from_triplets(1, 64, (0..64).map(|j| (0usize, j, j as f64 - 31.5))),
        // One dense column, rows otherwise empty.
        CsrMatrix::from_triplets(
            23,
            4,
            (0..23).step_by(2).map(|r| (r, 2usize, 0.5 * r as f64)),
        ),
        // Identity (every row exactly one entry).
        CsrMatrix::identity(9),
    ];
    for (i, a) in cases.iter().enumerate() {
        let x = probe_vector(a.ncols(), i as u64);
        let y_csr = mv(a, &x, SpmvLayout::Csr);
        for layout in ALT {
            assert_eq!(bits(&y_csr), bits(&mv(a, &x, layout)), "case {i} {layout}");
        }
    }
}

/// Run `f` with `ACIR_THREADS` set to `n`, then restore what it was.
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let before = std::env::var_os(acir_exec::THREADS_ENV);
    std::env::set_var(acir_exec::THREADS_ENV, n.to_string());
    let out = f();
    match before {
        Some(v) => std::env::set_var(acir_exec::THREADS_ENV, v),
        None => std::env::remove_var(acir_exec::THREADS_ENV),
    }
    out
}

/// The one env-flipping test in this binary: a graph operator big
/// enough to cross the parallel threshold (`PAR_MIN_NNZ`), checked
/// across layouts × thread counts × selection mechanisms.
#[test]
fn parallel_paths_and_selection_mechanisms_agree() {
    let mut rng = StdRng::seed_from_u64(42);
    let g = acir_graph::gen::random::barabasi_albert(&mut rng, 4000, 5).unwrap();
    let (g, _) = largest_component(&g);
    let nl = acir_spectral::normalized_laplacian(&g);
    assert!(nl.nnz() > 16_384, "operator too small to exercise fan-out");
    let x = probe_vector(nl.ncols(), 3);

    let reference = with_threads(1, || mv(&nl, &x, SpmvLayout::Csr));
    let ref_t = with_threads(1, || mtv(&nl, &x, SpmvLayout::Csr));
    for threads in [1usize, 4] {
        for layout in [
            SpmvLayout::Csr,
            SpmvLayout::Unrolled,
            SpmvLayout::Sell,
            SpmvLayout::Merge,
            SpmvLayout::Auto,
        ] {
            let (y, yt) = with_threads(threads, || (mv(&nl, &x, layout), mtv(&nl, &x, layout)));
            assert_eq!(bits(&reference), bits(&y), "matvec {layout} @{threads}t");
            assert_eq!(bits(&ref_t), bits(&yt), "transpose {layout} @{threads}t");
        }
    }

    // Env-var selection routes like the scope.
    std::env::set_var(acir_exec::SPMV_LAYOUT_ENV, "sell");
    assert_eq!(acir_exec::current_spmv_layout(), SpmvLayout::Sell);
    let y_env = {
        let mut y = vec![0.0; nl.nrows()];
        nl.matvec(&x, &mut y);
        y
    };
    std::env::remove_var(acir_exec::SPMV_LAYOUT_ENV);
    assert_eq!(bits(&reference), bits(&y_env));

    // KernelCtx routing: a layout installed on the context is ambient
    // for the whole solve and bit-identical to the default layout.
    let seed = acir_spectral::Seed::Node(0);
    let budget = acir_runtime::Budget::unlimited();
    let mut ctx_default = acir_runtime::KernelCtx::budgeted("test.pr", &budget);
    let base = acir_spectral::pagerank_power_ctx(&g, 0.15, &seed, 40, &mut ctx_default)
        .unwrap()
        .into_value()
        .unwrap();
    for layout in ALT {
        let mut ctx =
            acir_runtime::KernelCtx::budgeted("test.pr", &budget).with_spmv_layout(layout);
        let routed = acir_spectral::pagerank_power_ctx(&g, 0.15, &seed, 40, &mut ctx)
            .unwrap()
            .into_value()
            .unwrap();
        assert_eq!(bits(&base.0), bits(&routed.0), "ctx routing {layout}");
    }
}
