//! The extended weighted-Jaccard trace distance (Eq. 1).
//!
//! [`trace_distance`] is the clustering hot path: it runs once per
//! trace pair, O(n²) pairs per corpus. The kernel is a sorted-merge
//! over the flat id/weight arrays of [`WeightedTraceSet`] — index
//! arithmetic and `f64::min`/`max` only, no hashing and no pointer
//! chasing in the inner loop, with branch-free tail sums over the
//! leftover suffixes. [`trace_distance_hashed`] keeps the pre-refactor
//! `BTreeMap` merge as the reference baseline; the property suite
//! proves the two bit-identical on encoder-produced sets (integer
//! weights make every partial sum exact — see DESIGN.md §13).

use crate::traceset::{HashedTraceSet, WeightedTraceSet};
use sleuth_par::ThreadPool;

/// Distance between two weighted trace sets:
///
/// `d(A, B) = 1 − Σᵢ min(wᴬᵢ, wᴮᵢ) / Σᵢ max(wᴬᵢ, wᴮᵢ)`
///
/// over the union of elements, with absent elements weighted 0. The
/// result lies in `[0, 1]`; two empty sets are at distance 0.
pub fn trace_distance(a: &WeightedTraceSet, b: &WeightedTraceSet) -> f64 {
    let (ia, wa) = (a.ids(), a.weights());
    let (ib, wb) = (b.ids(), b.weights());
    let mut inter = 0.0f64;
    let mut union = 0.0f64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < ia.len() && j < ib.len() {
        let (ka, kb) = (ia[i], ib[j]);
        if ka == kb {
            let (x, y) = (wa[i], wb[j]);
            inter += x.min(y);
            union += x.max(y);
            i += 1;
            j += 1;
        } else if ka < kb {
            union += wa[i];
            i += 1;
        } else {
            union += wb[j];
            j += 1;
        }
    }
    // One side is exhausted: the other's suffix joins the union as-is.
    for &w in &wa[i..] {
        union += w;
    }
    for &w in &wb[j..] {
        union += w;
    }
    if union <= 0.0 {
        0.0
    } else {
        1.0 - inter / union
    }
}

/// [`trace_distance`] over the reference [`HashedTraceSet`]
/// representation (pre-refactor `BTreeMap` iterator merge). Kept for
/// the bit-identity property suite and the hot-path benchmarks.
pub fn trace_distance_hashed(a: &HashedTraceSet, b: &HashedTraceSet) -> f64 {
    let mut inter = 0.0f64;
    let mut union = 0.0f64;
    let mut ita = a.elements().iter().peekable();
    let mut itb = b.elements().iter().peekable();
    loop {
        match (ita.peek(), itb.peek()) {
            (Some((&ka, &wa)), Some((&kb, &wb))) => {
                if ka == kb {
                    inter += wa.min(wb);
                    union += wa.max(wb);
                    ita.next();
                    itb.next();
                } else if ka < kb {
                    union += wa;
                    ita.next();
                } else {
                    union += wb;
                    itb.next();
                }
            }
            (Some((_, &wa)), None) => {
                union += wa;
                ita.next();
            }
            (None, Some((_, &wb))) => {
                union += wb;
                itb.next();
            }
            (None, None) => break,
        }
    }
    if union <= 0.0 {
        0.0
    } else {
        1.0 - inter / union
    }
}

/// A symmetric pairwise distance matrix over `n` items.
///
/// Built through [`DistanceMatrix::builder`]:
///
/// ```
/// # use sleuth_cluster::{DistanceMatrix, WeightedTraceSet};
/// let mut a = WeightedTraceSet::default();
/// a.add(1, 2.0);
/// let sets = vec![a.clone(), a];
/// let dm = DistanceMatrix::builder().build_from(&sets);
/// assert_eq!(dm.get(0, 1), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    /// Condensed upper triangle, row-major, excluding the diagonal.
    data: Vec<f64>,
}

/// Configures how a [`DistanceMatrix`] is computed (see
/// [`DistanceMatrix::builder`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct DistanceMatrixBuilder<'p> {
    pool: Option<&'p ThreadPool>,
}

impl<'p> DistanceMatrixBuilder<'p> {
    /// Compute on an explicit thread pool instead of the global one.
    pub fn pool(self, pool: &ThreadPool) -> DistanceMatrixBuilder<'_> {
        DistanceMatrixBuilder { pool: Some(pool) }
    }

    /// Compute all pairwise [`trace_distance`]s over `sets`.
    pub fn build_from(self, sets: &[WeightedTraceSet]) -> DistanceMatrix {
        self.build_from_fn(sets.len(), |i, j| trace_distance(&sets[i], &sets[j]))
    }

    /// Build from an arbitrary symmetric distance function. The
    /// condensed upper triangle is partitioned into row bands claimed
    /// dynamically across the pool's threads; the result is
    /// bit-identical to the sequential fill at any thread count.
    pub fn build_from_fn(self, n: usize, f: impl Fn(usize, usize) -> f64 + Sync) -> DistanceMatrix {
        let pool = match self.pool {
            Some(p) => p,
            None => ThreadPool::global(),
        };
        let data = pool.par_triangle(n, f);
        DistanceMatrix { n, data }
    }
}

impl DistanceMatrix {
    /// Start configuring a distance-matrix computation.
    pub fn builder() -> DistanceMatrixBuilder<'static> {
        DistanceMatrixBuilder::default()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix covers no items.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between items `i` and `j` (0 on the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of range");
        if i == j {
            return 0.0;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        // Offset of row a in the condensed triangle.
        let row_start = a * self.n - a * (a + 1) / 2;
        self.data[row_start + (b - a - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traceset::TraceSetEncoder;
    use proptest::prelude::*;
    use sleuth_trace::{Span, Trace};

    fn set(pairs: &[(u32, f64)]) -> WeightedTraceSet {
        let mut s = WeightedTraceSet::default();
        for &(k, w) in pairs {
            s.add(k, w);
        }
        s
    }

    #[test]
    fn identity_distance_zero() {
        let a = set(&[(1, 10.0), (2, 5.0)]);
        assert_eq!(trace_distance(&a, &a), 0.0);
    }

    #[test]
    fn disjoint_distance_one() {
        let a = set(&[(1, 10.0)]);
        let b = set(&[(2, 10.0)]);
        assert_eq!(trace_distance(&a, &b), 1.0);
    }

    #[test]
    fn known_value() {
        // inter = min(4,2)=2; union = max(4,2)+3 = 7 → d = 1 - 2/7
        let a = set(&[(1, 4.0)]);
        let b = set(&[(1, 2.0), (2, 3.0)]);
        assert!((trace_distance(&a, &b) - (1.0 - 2.0 / 7.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_sets_distance_zero() {
        let e = WeightedTraceSet::default();
        assert_eq!(trace_distance(&e, &e), 0.0);
        let a = set(&[(1, 1.0)]);
        assert_eq!(trace_distance(&e, &a), 1.0);
    }

    #[test]
    fn high_duration_spans_dominate() {
        // Shared heavy element with differing light elements → small
        // distance; differing heavy elements → large distance.
        let heavy_shared_a = set(&[(1, 1000.0), (2, 1.0)]);
        let heavy_shared_b = set(&[(1, 1000.0), (3, 1.0)]);
        let heavy_diff_a = set(&[(4, 1000.0), (2, 1.0)]);
        let heavy_diff_b = set(&[(5, 1000.0), (2, 1.0)]);
        assert!(
            trace_distance(&heavy_shared_a, &heavy_shared_b)
                < trace_distance(&heavy_diff_a, &heavy_diff_b)
        );
    }

    #[test]
    fn matrix_layout_and_diagonal() {
        let sets = vec![set(&[(1, 1.0)]), set(&[(1, 1.0)]), set(&[(2, 1.0)])];
        let dm = DistanceMatrix::builder().build_from(&sets);
        assert_eq!(dm.len(), 3);
        assert_eq!(dm.get(0, 0), 0.0);
        assert_eq!(dm.get(0, 1), 0.0);
        assert_eq!(dm.get(1, 0), 0.0);
        assert_eq!(dm.get(0, 2), 1.0);
        assert_eq!(dm.get(2, 1), 1.0);
    }

    #[test]
    fn latency_shift_increases_distance_smoothly() {
        let enc = TraceSetEncoder::new(3);
        let mk = |d: u64| {
            Trace::assemble(vec![Span::builder(1, 1, "s", "op").time(0, d).build()]).unwrap()
        };
        let base = enc.encode(&mk(1000));
        let near = enc.encode(&mk(1100));
        let far = enc.encode(&mk(100_000));
        let dn = trace_distance(&base, &near);
        let df = trace_distance(&base, &far);
        assert!(dn < 0.2, "near distance {dn}");
        assert!(df > 0.9, "far distance {df}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The parallel triangle fill is bit-identical to the
        /// sequential one across thread counts.
        #[test]
        fn prop_parallel_matrix_bit_identical(
            weight_sets in proptest::collection::vec(
                proptest::collection::vec((0u32..30, 0.1f64..100.0), 0..10),
                0..24,
            ),
        ) {
            let sets: Vec<WeightedTraceSet> =
                weight_sets.iter().map(|pairs| set(pairs)).collect();
            let seq = DistanceMatrix::builder().pool(&ThreadPool::new(1)).build_from(&sets);
            for threads in [2usize, 8] {
                let par = DistanceMatrix::builder()
                    .pool(&ThreadPool::new(threads))
                    .build_from(&sets);
                prop_assert_eq!(par.len(), seq.len());
                let seq_bits: Vec<u64> = seq.data.iter().map(|d| d.to_bits()).collect();
                let par_bits: Vec<u64> = par.data.iter().map(|d| d.to_bits()).collect();
                prop_assert_eq!(par_bits, seq_bits, "threads = {}", threads);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Symmetry, range, and identity over random weighted sets.
        #[test]
        fn prop_metric_axioms(
            xs in proptest::collection::vec((0u32..20, 0.1f64..100.0), 0..12),
            ys in proptest::collection::vec((0u32..20, 0.1f64..100.0), 0..12),
        ) {
            let a = set(&xs);
            let b = set(&ys);
            let dab = trace_distance(&a, &b);
            let dba = trace_distance(&b, &a);
            prop_assert!((dab - dba).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&dab));
            prop_assert!(trace_distance(&a, &a) == 0.0);
        }
    }
}
