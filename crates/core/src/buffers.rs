//! The buffers a training step keeps across steps.
//!
//! Every intermediate of a full-batch training step has a shape fixed by
//! `(A, k, L)`: the `n × k` feature matrices (`H^l`, `H'`, `Z^l`, the loss
//! gradient, `∂H'`, `∂L/∂H`) and the nnz-long `∂C` on `A`'s pattern come
//! back with the same shapes every step. [`StepBuffers`] is where
//! `GnnModel::train_step` keeps them: a step *takes* a buffer where it
//! used to allocate one and *gives* it back where it used to drop it, so a
//! warm step allocates none of them and never hands their pages back to
//! the kernel to re-fault.
//!
//! A buffer is accepted back only while one of its shape is out. So the
//! buffers of a shape never outnumber the most of that shape a step held
//! at once — the step's live-at-peak working set — and a buffer given back
//! that the set never handed out (a layer that allocates its own outputs)
//! cannot grow it.

use atgnn_tensor::{dense, Dense, Scalar};

/// The free buffers of one shape, and how many of that shape are out.
struct Shelf<B> {
    /// `(rows, cols, stride)` of a matrix, `(len, 0, 0)` of a value array.
    shape: (usize, usize, usize),
    out: usize,
    free: Vec<B>,
}

/// Takes from the shelf of `shape`, or `make`s a new buffer.
fn take<B>(
    shelves: &mut Vec<Shelf<B>>,
    shape: (usize, usize, usize),
    make: impl FnOnce() -> B,
) -> B {
    let i = match shelves.iter().position(|s| s.shape == shape) {
        Some(i) => i,
        None => {
            shelves.push(Shelf {
                shape,
                out: 0,
                free: Vec::new(),
            });
            shelves.len() - 1
        }
    };
    let shelf = &mut shelves[i];
    shelf.out += 1;
    shelf.free.pop().unwrap_or_else(make)
}

/// Shelves `b` if one of its shape is out; drops it otherwise.
fn give<B>(shelves: &mut [Shelf<B>], shape: (usize, usize, usize), b: B) {
    if let Some(shelf) = shelves.iter_mut().find(|s| s.shape == shape && s.out > 0) {
        shelf.out -= 1;
        shelf.free.push(b);
    }
}

/// One model's step-persistent buffers: `n × k` feature matrices, keyed
/// on rows, columns and layout, and nnz-sized value arrays, keyed on
/// length.
///
/// Taken buffers hold whatever their last user left in them; padding
/// tails are zero, as in every [`Dense`]. A writer must therefore
/// overwrite every logical element, or zero-fill before it accumulates —
/// the `*_into` kernels do one or the other.
pub struct StepBuffers<T> {
    /// The step shape the buffers were made for: rows, nnz, input columns
    /// and layout. A step of another shape starts from an empty set.
    key: Option<(usize, usize, usize, bool)>,
    mats: Vec<Shelf<Dense<T>>>,
    values: Vec<Shelf<Vec<T>>>,
}

impl<T> Default for StepBuffers<T> {
    fn default() -> Self {
        Self {
            key: None,
            mats: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<T: Scalar> StepBuffers<T> {
    /// An empty set: every take allocates.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a step on a graph of `rows` nodes and `nnz` stored entries,
    /// whose input has `cols` columns and is `padded` or not. A step of a
    /// different shape drops every buffer first; every step forgets what
    /// the last one left out, so only this step's buffers come back.
    pub(crate) fn begin(&mut self, rows: usize, nnz: usize, cols: usize, padded: bool) {
        let key = Some((rows, nnz, cols, padded));
        if self.key != key {
            *self = Self {
                key,
                ..Self::default()
            };
        }
        for shelf in &mut self.mats {
            shelf.out = 0;
        }
        for shelf in &mut self.values {
            shelf.out = 0;
        }
    }

    /// A `rows × cols` matrix, lane-padded if `padded`, with stale
    /// contents (a new one is zero).
    pub fn take(&mut self, rows: usize, cols: usize, padded: bool) -> Dense<T> {
        let stride = if padded {
            dense::padded_stride(cols)
        } else {
            cols
        };
        take(&mut self.mats, (rows, cols, stride), || {
            if padded {
                Dense::zeros_padded(rows, cols)
            } else {
                Dense::zeros(rows, cols)
            }
        })
    }

    /// [`StepBuffers::take`] in the layout of `like` — the buffer
    /// [`Dense::zeros_matching`] would have allocated.
    pub fn take_like(&mut self, like: &Dense<T>, rows: usize, cols: usize) -> Dense<T> {
        self.take(rows, cols, like.is_padded())
    }

    /// Returns a matrix to the set (see the module docs for when it is
    /// kept).
    pub fn give(&mut self, m: Dense<T>) {
        let shape = (m.rows(), m.cols(), m.stride());
        give(&mut self.mats, shape, m);
    }

    /// A value array of `len` elements, with stale contents.
    pub fn take_values(&mut self, len: usize) -> Vec<T> {
        take(&mut self.values, (len, 0, 0), || vec![T::zero(); len])
    }

    /// Returns a value array to the set.
    pub fn give_values(&mut self, v: Vec<T>) {
        give(&mut self.values, (v.len(), 0, 0), v);
    }

    /// How many matrices and value arrays the set holds.
    #[cfg(test)]
    fn held(&self) -> (usize, usize) {
        (
            self.mats.iter().map(|s| s.free.len()).sum(),
            self.values.iter().map(|s| s.free.len()).sum(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_buffer_comes_back_to_the_next_take_of_its_shape() {
        let mut b = StepBuffers::<f32>::new();
        b.begin(4, 9, 3, false);
        let mut m = b.take(4, 3, false);
        m[(1, 2)] = 7.0;
        let ptr = m.as_slice().as_ptr();
        b.give(m);
        let padded = b.take(4, 3, true);
        assert!(padded.is_padded(), "another layout is another shape");
        let again = b.take(4, 3, false);
        assert_eq!(again.as_slice().as_ptr(), ptr);
        assert_eq!(again[(1, 2)], 7.0, "contents are stale, not cleared");
        let v = b.take_values(9);
        b.give_values(v);
        b.give(again);
        b.give(padded);
        assert_eq!(b.held(), (2, 1));
    }

    #[test]
    fn the_set_never_outgrows_what_was_out_at_once() {
        let mut b = StepBuffers::<f32>::new();
        for _ in 0..3 {
            b.begin(5, 0, 2, false);
            let (x, y) = (b.take(5, 2, false), b.take(5, 2, false));
            b.give(x);
            // Buffers the set never handed out: only as many as are out.
            b.give(Dense::zeros(5, 2));
            b.give(Dense::zeros(5, 2));
            b.give(Dense::zeros(6, 2));
            b.give(y);
            b.give_values(vec![0.0; 3]);
        }
        assert_eq!(b.held(), (2, 0));
    }

    #[test]
    fn a_new_step_shape_drops_the_buffers() {
        let mut b = StepBuffers::<f64>::new();
        b.begin(5, 7, 2, false);
        let m = b.take(5, 2, false);
        b.give(m);
        b.begin(5, 7, 2, false);
        assert_eq!(b.held(), (1, 0));
        for key in [
            (6, 7, 2, false),
            (6, 8, 2, false),
            (6, 8, 3, false),
            (6, 8, 3, true),
        ] {
            let m = b.take(5, 2, false);
            b.give(m);
            b.begin(key.0, key.1, key.2, key.3);
            assert_eq!(b.held(), (0, 0), "{key:?}");
        }
    }
}
