//! Element-wise and in-place dense operations.
//!
//! These implement the Hadamard product `⊙` and division `⊘` of the paper's
//! formulations, plus the scale/axpy primitives the optimizers use.

use crate::dense::Dense;
use crate::rt::{self, Cost, DisjointSlice};
use crate::scalar::Scalar;

/// Threshold (in elements) above which element-wise loops run in
/// parallel.
const PAR_THRESHOLD: usize = 64 * 1024;

#[inline]
fn zip_apply<T: Scalar>(a: &mut Dense<T>, b: &Dense<T>, f: impl Fn(&mut T, T) + Sync + Send) {
    assert_eq!(a.shape(), b.shape(), "element-wise op: shape mismatch");
    let n = a.len();
    let parallel = n >= PAR_THRESHOLD;
    if !a.is_padded() && !b.is_padded() {
        let bs = b.as_slice();
        let slots = DisjointSlice::new(a.as_mut_slice());
        rt::parallel_for(n, Cost::Uniform, parallel, |lo, hi| {
            // SAFETY: element ranges are disjoint across chunk bodies.
            let part = unsafe { slots.range_mut(lo, hi) };
            for (x, &y) in part.iter_mut().zip(&bs[lo..hi]) {
                f(x, y);
            }
        });
        return;
    }
    // Padded operand(s): run per logical row so the zero padding tails are
    // never touched — `f` may map 0 to non-zero (division, exp), which
    // would break the tails-stay-zero invariant. The per-element rounding
    // sequence is identical to the tight path (row-major logical order).
    let (rows, cols) = a.shape();
    let a_stride = a.stride();
    let slots = DisjointSlice::new(a.as_mut_slice());
    rt::parallel_for(rows, Cost::Uniform, parallel, |lo, hi| {
        // SAFETY: row ranges are disjoint across chunk bodies.
        let part = unsafe { slots.range_mut(lo * a_stride, hi * a_stride) };
        for (r, arow) in (lo..hi).zip(part.chunks_mut(a_stride)) {
            for (x, &y) in arow[..cols].iter_mut().zip(b.row(r)) {
                f(x, y);
            }
        }
    });
}

#[inline]
fn map_apply<T: Scalar>(a: &mut Dense<T>, f: impl Fn(&mut T) + Sync + Send) {
    let n = a.len();
    let parallel = n >= PAR_THRESHOLD;
    if !a.is_padded() {
        let slots = DisjointSlice::new(a.as_mut_slice());
        rt::parallel_for(n, Cost::Uniform, parallel, |lo, hi| {
            // SAFETY: element ranges are disjoint across chunk bodies.
            let part = unsafe { slots.range_mut(lo, hi) };
            part.iter_mut().for_each(&f);
        });
        return;
    }
    // Padded: per logical row, tails untouched (see zip_apply).
    let (rows, cols) = a.shape();
    let a_stride = a.stride();
    let slots = DisjointSlice::new(a.as_mut_slice());
    rt::parallel_for(rows, Cost::Uniform, parallel, |lo, hi| {
        // SAFETY: row ranges are disjoint across chunk bodies.
        let part = unsafe { slots.range_mut(lo * a_stride, hi * a_stride) };
        for arow in part.chunks_mut(a_stride) {
            arow[..cols].iter_mut().for_each(&f);
        }
    });
}

/// `a += b`.
pub fn add_assign<T: Scalar>(a: &mut Dense<T>, b: &Dense<T>) {
    zip_apply(a, b, |x, y| *x += y);
}

/// `a -= b`.
pub fn sub_assign<T: Scalar>(a: &mut Dense<T>, b: &Dense<T>) {
    zip_apply(a, b, |x, y| *x -= y);
}

/// `a ⊙= b` (Hadamard product).
pub fn hadamard_assign<T: Scalar>(a: &mut Dense<T>, b: &Dense<T>) {
    zip_apply(a, b, |x, y| *x *= y);
}

/// `a ⊘= b` (Hadamard division).
pub fn hadamard_div_assign<T: Scalar>(a: &mut Dense<T>, b: &Dense<T>) {
    zip_apply(a, b, |x, y| *x /= y);
}

/// Returns `a + b`.
pub fn add<T: Scalar>(a: &Dense<T>, b: &Dense<T>) -> Dense<T> {
    let mut out = a.clone();
    add_assign(&mut out, b);
    out
}

/// Returns `a - b`.
pub fn sub<T: Scalar>(a: &Dense<T>, b: &Dense<T>) -> Dense<T> {
    let mut out = a.clone();
    sub_assign(&mut out, b);
    out
}

/// Returns `a ⊙ b`.
pub fn hadamard<T: Scalar>(a: &Dense<T>, b: &Dense<T>) -> Dense<T> {
    let mut out = a.clone();
    hadamard_assign(&mut out, b);
    out
}

/// `a *= s` (scalar scale).
pub fn scale_assign<T: Scalar>(a: &mut Dense<T>, s: T) {
    map_apply(a, |x| *x *= s);
}

/// Returns `s · a`.
pub fn scale<T: Scalar>(a: &Dense<T>, s: T) -> Dense<T> {
    let mut out = a.clone();
    scale_assign(&mut out, s);
    out
}

/// `y += alpha * x` — the optimizer update primitive.
pub fn axpy<T: Scalar>(y: &mut Dense<T>, alpha: T, x: &Dense<T>) {
    zip_apply(y, x, move |o, v| *o += alpha * v);
}

/// Applies `f` to every element in place.
pub fn map_assign<T: Scalar>(a: &mut Dense<T>, f: impl Fn(T) -> T + Sync + Send) {
    map_apply(a, |x| *x = f(*x));
}

/// `a[i] = f(a[i], b[i])` for every logical element, in place.
pub fn zip_assign<T: Scalar>(a: &mut Dense<T>, b: &Dense<T>, f: impl Fn(T, T) -> T + Sync + Send) {
    zip_apply(a, b, |x, y| *x = f(*x, y));
}

/// `out[i] = f(a[i], b[i])` for every logical element: [`zip_assign`]
/// with the result written to a third matrix. The three may have any
/// layouts; `out`'s padding tails are left as they are.
pub fn zip_into<T: Scalar>(
    out: &mut Dense<T>,
    a: &Dense<T>,
    b: &Dense<T>,
    f: impl Fn(T, T) -> T + Sync + Send,
) {
    assert_eq!(a.shape(), b.shape(), "element-wise op: shape mismatch");
    assert_eq!(out.shape(), a.shape(), "element-wise op: shape mismatch");
    let (rows, cols) = out.shape();
    let stride = out.stride();
    let parallel = out.len() >= PAR_THRESHOLD;
    let slots = DisjointSlice::new(out.as_mut_slice());
    rt::parallel_for(rows, Cost::Uniform, parallel, |lo, hi| {
        // SAFETY: row ranges are disjoint across chunk bodies.
        let part = unsafe { slots.range_mut(lo * stride, hi * stride) };
        for (r, orow) in (lo..hi).zip(part.chunks_mut(stride.max(1))) {
            for ((o, &x), &y) in orow[..cols].iter_mut().zip(a.row(r)).zip(b.row(r)) {
                *o = f(x, y);
            }
        }
    });
}

/// `out[i] = f(a[i])` for every logical element, into a same-shape matrix
/// of any layout (its padding tails are left as they are).
pub fn map_into<T: Scalar>(out: &mut Dense<T>, a: &Dense<T>, f: impl Fn(T) -> T + Sync + Send) {
    zip_apply(out, a, |o, v| *o = f(v));
}

/// Returns `f` mapped over every element.
pub fn map<T: Scalar>(a: &Dense<T>, f: impl Fn(T) -> T + Sync + Send) -> Dense<T> {
    let mut out = a.clone();
    map_assign(&mut out, f);
    out
}

/// Sum of all logical elements, in row-major order (layout-invariant:
/// the padded path visits the same elements in the same sequence).
pub fn total_sum<T: Scalar>(a: &Dense<T>) -> T {
    if !a.is_padded() {
        return a.as_slice().iter().copied().fold(T::zero(), |s, v| s + v);
    }
    let mut s = T::zero();
    for i in 0..a.rows() {
        for &v in a.row(i) {
            s += v;
        }
    }
    s
}

/// `Σ (a − b)²` over the logical elements in row-major order — the
/// ascending fold of `total_sum(&hadamard(&d, &d))` with `d = a − b`,
/// without the two temporaries.
pub fn sum_sq_diff<T: Scalar>(a: &Dense<T>, b: &Dense<T>) -> T {
    assert_eq!(a.shape(), b.shape(), "element-wise op: shape mismatch");
    let mut s = T::zero();
    for i in 0..a.rows() {
        for (&x, &y) in a.row(i).iter().zip(b.row(i)) {
            let d = x - y;
            s += d * d;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(values: &[f64], rows: usize, cols: usize) -> Dense<f64> {
        Dense::from_vec(rows, cols, values.to_vec())
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = m(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = m(&[0.5, 0.5, 0.5, 0.5], 2, 2);
        let mut c = add(&a, &b);
        sub_assign(&mut c, &b);
        assert!(c.max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn hadamard_product_and_division() {
        let a = m(&[2.0, 4.0, 6.0, 8.0], 2, 2);
        let b = m(&[2.0, 2.0, 3.0, 4.0], 2, 2);
        let h = hadamard(&a, &b);
        assert_eq!(h.as_slice(), &[4.0, 8.0, 18.0, 32.0]);
        let mut d = h;
        hadamard_div_assign(&mut d, &b);
        assert!(d.max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn scale_and_axpy() {
        let a = m(&[1.0, -1.0], 1, 2);
        let s = scale(&a, 3.0);
        assert_eq!(s.as_slice(), &[3.0, -3.0]);
        let mut y = m(&[0.0, 1.0], 1, 2);
        axpy(&mut y, 2.0, &a);
        assert_eq!(y.as_slice(), &[2.0, -1.0]);
    }

    #[test]
    fn map_applies_function() {
        let a = m(&[1.0, 4.0, 9.0], 1, 3);
        let r = map(&a, |v| v.sqrt());
        assert_eq!(r.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn total_sum_adds_everything() {
        let a = m(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        assert_eq!(total_sum(&a), 10.0);
    }

    #[test]
    fn padded_operands_keep_tails_zero_and_match_tight() {
        let a = Dense::<f64>::from_fn(5, 3, |i, j| (i + j) as f64 + 0.5);
        let b = Dense::<f64>::from_fn(5, 3, |i, j| (i * j) as f64 - 0.25);
        let (ap, bp) = (a.padded(), b.padded());
        // A map with f(0) != 0 must not disturb the zero tails.
        let e_t = map(&a, |v| v.exp());
        let e_p = map(&ap, |v| v.exp());
        assert!(e_p.is_padded() && e_p.padding_is_zero());
        assert_eq!(e_p, e_t);
        let mut h = ap.clone();
        hadamard_assign(&mut h, &bp);
        assert!(h.padding_is_zero());
        assert_eq!(h, hadamard(&a, &b));
        // Mixed layouts zip over logical elements.
        let mut m2 = a.clone();
        add_assign(&mut m2, &bp);
        assert_eq!(m2, add(&a, &b));
        assert_eq!(total_sum(&ap).to_bits(), total_sum(&a).to_bits());
    }

    #[test]
    fn writing_forms_match_the_allocating_ones_in_every_layout() {
        let a = Dense::<f64>::from_fn(300, 230, |i, j| (i * 7 + j) as f64 * 0.013 - 1.0);
        let b = Dense::<f64>::from_fn(300, 230, |i, j| (i + 3 * j) as f64 * 0.021);
        let want = zip_assign_copy(&a, &b);
        let e = map(&a, |v| v.exp());
        for (x, y) in [
            (a.clone(), b.clone()),
            (a.padded(), b.clone()),
            (a.clone(), b.padded()),
        ] {
            for mut out in [Dense::filled(300, 230, 5.0), Dense::zeros_padded(300, 230)] {
                zip_into(&mut out, &x, &y, |p, q| (p - q) * 0.5);
                assert!(out.padding_is_zero());
                assert_eq!(out, want);
                map_into(&mut out, &x, |v| v.exp());
                assert_eq!(out, e);
            }
        }
    }

    fn zip_assign_copy(a: &Dense<f64>, b: &Dense<f64>) -> Dense<f64> {
        let mut out = a.clone();
        zip_assign(&mut out, b, |p, q| (p - q) * 0.5);
        out
    }

    #[test]
    fn parallel_path_matches_serial() {
        let big = Dense::<f64>::from_fn(512, 256, |i, j| (i + j) as f64);
        let mut a = big.clone();
        add_assign(&mut a, &big);
        let expect = scale(&big, 2.0);
        assert!(a.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Dense::<f64>::zeros(2, 2);
        let b = Dense::<f64>::zeros(2, 3);
        let mut a = a;
        add_assign(&mut a, &b);
    }
}
