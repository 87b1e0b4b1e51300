//! Generalized matrix products over semirings (paper Section 4.3).
//!
//! The paper expresses arbitrary vertex aggregations `⊕` as sparse-dense
//! matrix products over different semirings `(X, op₁, op₂, el₁, el₂)`:
//!
//! * the **real semiring** `(R, +, ·, 0, 1)` — the standard sum
//!   aggregation;
//! * the **tropical min-plus** semiring `(R ∪ {∞}, min, +, ∞, 0)` — min
//!   aggregation (off-pattern adjacency zeros are the semiring zero `∞`,
//!   which CSR encodes implicitly by skipping missing entries);
//! * the **tropical max-plus** semiring `(R ∪ {−∞}, max, +, −∞, 0)` — max
//!   aggregation;
//! * the **averaging semiring** over pairs: the accumulator carries the
//!   weighted partial sum and the weight total so that merging two partial
//!   aggregates yields the weighted average, exactly the bookkeeping the
//!   paper's tuple construction performs. (The printed `op₁`/`op₂` in the
//!   paper PDF are OCR-garbled; the implementation here realizes the
//!   stated intent — a streamed weighted average — and is property-tested
//!   against the direct computation.)
//!
//! A [`Semiring`] instance plugs into [`crate::spmm::spmm`]; the
//! accumulator type `Acc` is separate from the element type so the
//! averaging semiring can carry `(sum, weight)` pairs without boxing.

use atgnn_tensor::Scalar;

/// Plan-time metadata identifying a semiring: which aggregation a DAG
/// node performs and whether its `op₁` admits an additive inverse.
///
/// The global backward formulation (paper Eqs. 11–13) differentiates
/// through the aggregation as if it were a *linear* map, which requires
/// `op₁` to be invertible (a group, not just a monoid). The tropical
/// min/max semirings violate that — their backward is an argmin/argmax
/// selection, not a matrix product — so the static analyzer flags them
/// on backward DAGs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SemiringKind {
    /// `(R, +, ·)` — sum aggregation.
    Real,
    /// `(R ∪ {∞}, min, +)` — min aggregation.
    MinPlus,
    /// `(R ∪ {−∞}, max, +)` — max aggregation.
    MaxPlus,
    /// Weighted-average aggregation (linear in `H` for fixed weights).
    Average,
}

impl SemiringKind {
    /// Human-readable name used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            SemiringKind::Real => "real",
            SemiringKind::MinPlus => "min-plus",
            SemiringKind::MaxPlus => "max-plus",
            SemiringKind::Average => "average",
        }
    }

    /// Whether `op₁` has an additive inverse (equivalently: whether the
    /// aggregation is a linear map of `H`, so the global backward pass
    /// can differentiate through it as a matrix product).
    pub fn has_additive_inverse(self) -> bool {
        match self {
            SemiringKind::Real | SemiringKind::Average => true,
            SemiringKind::MinPlus | SemiringKind::MaxPlus => false,
        }
    }

    /// Whether `op₁` is insensitive to evaluation order in floating point.
    ///
    /// `min`/`max` are idempotent, commutative and associative *exactly*
    /// (no rounding), so any parallel reduction tree yields bit-identical
    /// results. `+` rounds, so order-insensitivity must instead be proven
    /// from the schedule (see the determinism analysis in
    /// `atgnn::analyze`).
    pub fn order_insensitive(self) -> bool {
        match self {
            SemiringKind::MinPlus | SemiringKind::MaxPlus => true,
            SemiringKind::Real | SemiringKind::Average => false,
        }
    }
}

impl core::fmt::Display for SemiringKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A semiring driving the generalized SpMM `(A ⊕ H)`.
///
/// For each output element the product performs
/// `finish(fold(combine, zero, {(a_ij, h_jf)}))` over the stored entries
/// of row `i`; `combine` is `acc ← acc op₁ (a op₂ h)`.
pub trait Semiring<T: Scalar>: Sync {
    /// Accumulator state for one output element (`'static` so kernels can
    /// keep accumulator rows in the per-thread scratch arenas of
    /// `atgnn_tensor::rt`).
    type Acc: Clone + Send + Sync + 'static;
    /// The `op₁` identity `el₁`.
    fn zero(&self) -> Self::Acc;
    /// `acc ← acc op₁ (a_val op₂ h_val)`.
    fn combine(&self, acc: &mut Self::Acc, a_val: T, h_val: T);
    /// Projects the accumulator back into the element domain.
    fn finish(&self, acc: Self::Acc) -> T;
    /// Merges two partial accumulators (`op₁`); required for split/reduce
    /// parallelism and the distributed partial-sum reduction.
    fn merge(&self, into: &mut Self::Acc, other: &Self::Acc);
    /// Plan-time identity of this semiring, if it is one of the built-in
    /// aggregations. Custom semirings may return `None`; the analyzer
    /// then skips the semiring-compatibility rule for them.
    fn kind(&self) -> Option<SemiringKind> {
        None
    }
}

/// `(R, +, ·, 0, 1)` — the standard sum aggregation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Real;

impl<T: Scalar> Semiring<T> for Real {
    type Acc = T;
    #[inline(always)]
    fn zero(&self) -> T {
        T::zero()
    }
    #[inline(always)]
    fn combine(&self, acc: &mut T, a: T, h: T) {
        *acc += a * h;
    }
    #[inline(always)]
    fn finish(&self, acc: T) -> T {
        acc
    }
    #[inline(always)]
    fn merge(&self, into: &mut T, other: &T) {
        *into += *other;
    }
    #[inline(always)]
    fn kind(&self) -> Option<SemiringKind> {
        Some(SemiringKind::Real)
    }
}

/// `(R ∪ {∞}, min, +, ∞, 0)` — min aggregation.
///
/// With the adjacency values set to `0` (see
/// [`crate::norm::to_aggregation_weights`]), the product computes
/// `h⁺_{if} = min_{j ∈ N(i)} h_{jf}`.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinPlus;

impl<T: Scalar> Semiring<T> for MinPlus {
    type Acc = T;
    #[inline(always)]
    fn zero(&self) -> T {
        T::infinity()
    }
    #[inline(always)]
    fn combine(&self, acc: &mut T, a: T, h: T) {
        *acc = Scalar::min(*acc, a + h);
    }
    #[inline(always)]
    fn finish(&self, acc: T) -> T {
        acc
    }
    #[inline(always)]
    fn merge(&self, into: &mut T, other: &T) {
        *into = Scalar::min(*into, *other);
    }
    #[inline(always)]
    fn kind(&self) -> Option<SemiringKind> {
        Some(SemiringKind::MinPlus)
    }
}

/// `(R ∪ {−∞}, max, +, −∞, 0)` — max aggregation.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaxPlus;

impl<T: Scalar> Semiring<T> for MaxPlus {
    type Acc = T;
    #[inline(always)]
    fn zero(&self) -> T {
        T::neg_infinity()
    }
    #[inline(always)]
    fn combine(&self, acc: &mut T, a: T, h: T) {
        *acc = Scalar::max(*acc, a + h);
    }
    #[inline(always)]
    fn finish(&self, acc: T) -> T {
        acc
    }
    #[inline(always)]
    fn merge(&self, into: &mut T, other: &T) {
        *into = Scalar::max(*into, *other);
    }
    #[inline(always)]
    fn kind(&self) -> Option<SemiringKind> {
        Some(SemiringKind::MaxPlus)
    }
}

/// The averaging semiring: accumulators are `(weighted sum, weight total)`
/// pairs; `finish` divides, yielding the weighted average of neighbor
/// features `Σ a_ij h_jf / Σ a_ij`. Vertices without stored neighbors
/// produce `0`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Average;

impl<T: Scalar> Semiring<T> for Average {
    type Acc = (T, T);
    #[inline(always)]
    fn zero(&self) -> (T, T) {
        (T::zero(), T::zero())
    }
    #[inline(always)]
    fn combine(&self, acc: &mut (T, T), a: T, h: T) {
        acc.0 += a * h;
        acc.1 += a;
    }
    #[inline(always)]
    fn finish(&self, acc: (T, T)) -> T {
        if acc.1 == T::zero() {
            T::zero()
        } else {
            acc.0 / acc.1
        }
    }
    #[inline(always)]
    fn merge(&self, into: &mut (T, T), other: &(T, T)) {
        into.0 += other.0;
        into.1 += other.1;
    }
    #[inline(always)]
    fn kind(&self) -> Option<SemiringKind> {
        Some(SemiringKind::Average)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_semiring_is_sum_of_products() {
        let s = Real;
        let mut acc = Semiring::<f64>::zero(&s);
        s.combine(&mut acc, 2.0, 3.0);
        s.combine(&mut acc, 1.0, 4.0);
        assert_eq!(s.finish(acc), 10.0);
    }

    #[test]
    fn min_plus_tracks_minimum() {
        let s = MinPlus;
        let mut acc = Semiring::<f64>::zero(&s);
        assert_eq!(acc, f64::INFINITY);
        s.combine(&mut acc, 0.0, 5.0);
        s.combine(&mut acc, 0.0, 2.0);
        s.combine(&mut acc, 0.0, 7.0);
        assert_eq!(s.finish(acc), 2.0);
    }

    #[test]
    fn max_plus_tracks_maximum() {
        let s = MaxPlus;
        let mut acc = Semiring::<f64>::zero(&s);
        s.combine(&mut acc, 0.0, -5.0);
        s.combine(&mut acc, 0.0, -2.0);
        assert_eq!(s.finish(acc), -2.0);
    }

    #[test]
    fn average_weights_correctly() {
        let s = Average;
        let mut acc = Semiring::<f64>::zero(&s);
        s.combine(&mut acc, 1.0, 2.0);
        s.combine(&mut acc, 3.0, 6.0);
        // (1*2 + 3*6) / (1+3) = 20/4
        assert_eq!(s.finish(acc), 5.0);
    }

    #[test]
    fn average_of_nothing_is_zero() {
        let s = Average;
        let acc = Semiring::<f64>::zero(&s);
        assert_eq!(s.finish(acc), 0.0);
    }

    #[test]
    fn merge_matches_sequential_combine() {
        // Splitting a fold across two accumulators and merging must equal
        // the sequential fold — the invariant split/reduce parallelism and
        // the distributed partial-sum reduction rely on.
        let s = Average;
        let pairs = [(1.0, 2.0), (2.0, -1.0), (0.5, 4.0), (1.5, 3.0)];
        let mut seq = Semiring::<f64>::zero(&s);
        for &(a, h) in &pairs {
            s.combine(&mut seq, a, h);
        }
        let mut left = Semiring::<f64>::zero(&s);
        let mut right = Semiring::<f64>::zero(&s);
        for &(a, h) in &pairs[..2] {
            s.combine(&mut left, a, h);
        }
        for &(a, h) in &pairs[2..] {
            s.combine(&mut right, a, h);
        }
        s.merge(&mut left, &right);
        assert!((s.finish(left) - s.finish(seq)).abs() < 1e-15);
    }
}
