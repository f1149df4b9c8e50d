//! A small dense tensor of `f32` values.
//!
//! [`Tensor`] is a contiguous row-major array with an explicit shape. It
//! supports the operations the layer zoo needs — matrix multiplication,
//! broadcasting row additions, element-wise maps, transposition,
//! reductions — with shape checking on every operation.

use edgetune_util::rng::{sample_normal, SeedStream};

/// Cache-block sizes for [`Tensor::matmul_into`]: output rows × output
/// columns per tile. The `k` loop is never tiled — splitting it would
/// reorder floating-point accumulation and break bit-identity with the
/// naive kernels — so blocking only bounds the `rhs` panel (`k` rows ×
/// `MATMUL_BLOCK_COLS` columns ≈ 128 KiB at `k = 256`) that each pass
/// streams, keeping it resident in L2 across a stripe of output rows.
const MATMUL_BLOCK_ROWS: usize = 64;
const MATMUL_BLOCK_COLS: usize = 128;

/// A dense, row-major tensor of `f32` values.
///
/// # Examples
///
/// ```
/// use edgetune_nn::tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::eye(2);
/// let c = a.matmul(&b);
/// assert_eq!(c.data(), a.data());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        let len = checked_len(shape);
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// A tensor filled with `value`.
    #[must_use]
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len = checked_len(shape);
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; len],
        }
    }

    /// The identity matrix of size `n × n`.
    #[must_use]
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Builds a tensor from raw data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    #[must_use]
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let len = checked_len(shape);
        assert_eq!(
            data.len(),
            len,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Gaussian-initialised tensor (mean 0, given std), seeded.
    #[must_use]
    pub fn randn(shape: &[usize], std_dev: f32, seed: SeedStream) -> Self {
        let len = checked_len(shape);
        let mut rng = seed.rng("tensor-randn");
        let data = (0..len)
            .map(|_| sample_normal(&mut rng, 0.0, f64::from(std_dev)) as f32)
            .collect();
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Kaiming/He initialisation for a layer with `fan_in` inputs.
    #[must_use]
    pub fn kaiming(shape: &[usize], fan_in: usize, seed: SeedStream) -> Self {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        Tensor::randn(shape, std, seed)
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has zero elements (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying data.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Number of rows of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    #[must_use]
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "rows() requires a 2-D tensor");
        self.shape[0]
    }

    /// Number of columns of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    #[must_use]
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "cols() requires a 2-D tensor");
        self.shape[1]
    }

    /// Element access for a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or the tensor is not 2-D.
    #[must_use]
    pub fn at(&self, row: usize, col: usize) -> f32 {
        let c = self.cols();
        assert!(
            row < self.rows() && col < c,
            "index ({row},{col}) out of bounds"
        );
        self.data[row * c + col]
    }

    /// Reshapes to a new shape with the same number of elements.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    #[must_use]
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let len = checked_len(shape);
        assert_eq!(
            self.data.len(),
            len,
            "cannot reshape {:?} to {:?}",
            self.shape,
            shape
        );
        Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// Copies `src`'s shape and contents into `self`, reusing the
    /// existing data allocation when its capacity suffices — the
    /// buffer-reuse counterpart of `clone()` for standing caches that
    /// are refilled every training batch.
    pub fn copy_from(&mut self, src: &Tensor) {
        self.shape.clear();
        self.shape.extend_from_slice(&src.shape);
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Matrix product of two 2-D tensors.
    ///
    /// Allocates a fresh output and delegates to [`Tensor::matmul_into`];
    /// hot paths that already own a correctly shaped buffer should call
    /// `matmul_into` directly and skip the allocation.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[self.rows(), rhs.cols()]);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product written into a preallocated `[m, n]` output.
    ///
    /// The kernel is cache-blocked over output rows and columns only;
    /// the `k` loop is never split, so every output element accumulates
    /// its products onto a fresh zero in one ascending-`k` pass and the
    /// result is bit-identical to [`Tensor::matmul_naive`]
    /// (proptest-enforced in `tests/kernel_properties.rs`). Rows of
    /// `rhs` whose `self` coefficient is exactly zero are skipped: the
    /// `±0.0` products they would add cannot change any value the
    /// accumulator can reach.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or if `out` is not `[m, n]`.
    pub fn matmul_into(&self, rhs: &Tensor, out: &mut Tensor) {
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (rhs.rows(), rhs.cols());
        assert_eq!(
            k, k2,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape, rhs.shape
        );
        assert_eq!(
            out.shape,
            [m, n],
            "matmul output must be [{m}, {n}], got {:?}",
            out.shape
        );
        out.data.iter_mut().for_each(|x| *x = 0.0);
        for ib in (0..m).step_by(MATMUL_BLOCK_ROWS) {
            let i_end = (ib + MATMUL_BLOCK_ROWS).min(m);
            for jb in (0..n).step_by(MATMUL_BLOCK_COLS) {
                let j_end = (jb + MATMUL_BLOCK_COLS).min(n);
                for i in ib..i_end {
                    let a_row = &self.data[i * k..(i + 1) * k];
                    let out_row = &mut out.data[i * n + jb..i * n + j_end];
                    for (p, &a) in a_row.iter().enumerate() {
                        if a == 0.0 {
                            continue;
                        }
                        let rhs_row = &rhs.data[p * n + jb..p * n + j_end];
                        for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                            *o += a * b;
                        }
                    }
                }
            }
        }
    }

    /// Reference matrix product: the textbook `i → j → k` triple loop.
    ///
    /// Deliberately unblocked — the inner loop walks a column of `rhs`
    /// with stride `n`, so this is the cache-hostile baseline the
    /// blocked kernel is timed against (the ignored release-mode test
    /// `kernel_properties::blocked_matmul_beats_the_naive_kernel`) and
    /// proptested against. It keeps the same zero-coefficient skip and
    /// ascending-`k` accumulation, hence bit-identical results.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn matmul_naive(&self, rhs: &Tensor) -> Tensor {
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (rhs.rows(), rhs.cols());
        assert_eq!(
            k, k2,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape, rhs.shape
        );
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for (j, o) in out[i * n..(i + 1) * n].iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for p in 0..k {
                    let a = self.data[i * k + p];
                    if a == 0.0 {
                        continue;
                    }
                    acc += a * rhs.data[p * n + j];
                }
                *o = acc;
            }
        }
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    #[must_use]
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(&[self.cols(), self.rows()]);
        self.transpose_into(&mut out);
        out
    }

    /// Transpose written into a preallocated `[cols, rows]` output.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not have the transposed shape.
    pub fn transpose_into(&self, out: &mut Tensor) {
        let (m, n) = (self.rows(), self.cols());
        assert_eq!(
            out.shape,
            [n, m],
            "transpose output must be [{n}, {m}], got {:?}",
            out.shape
        );
        for i in 0..m {
            for (j, &v) in self.data[i * n..(i + 1) * n].iter().enumerate() {
                out.data[j * m + i] = v;
            }
        }
    }

    /// Element-wise sum of two same-shape tensors.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Element-wise difference.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn hadamard(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "hadamard shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a * b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Adds a `[1 × n]`-like row vector to every row of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the column count.
    #[must_use]
    pub fn add_row(&self, row: &[f32]) -> Tensor {
        let mut out = self.clone();
        out.add_row_assign(row);
        out
    }

    /// In-place version of [`Tensor::add_row`]: adds the row vector to
    /// every row of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the column count.
    pub fn add_row_assign(&mut self, row: &[f32]) {
        let (m, n) = (self.rows(), self.cols());
        assert_eq!(row.len(), n, "row length mismatch");
        for r in 0..m {
            for (o, &v) in self.data[r * n..(r + 1) * n].iter_mut().zip(row) {
                *o += v;
            }
        }
    }

    /// Sums each column of a 2-D tensor, producing a length-`cols` vector.
    #[must_use]
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols()];
        self.sum_rows_into(&mut out);
        out
    }

    /// Column sums written into a preallocated length-`cols` slice
    /// (zeroed first, then accumulated row by row — the same order as
    /// [`Tensor::sum_rows`]).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the column count.
    pub fn sum_rows_into(&self, out: &mut [f32]) {
        let (m, n) = (self.rows(), self.cols());
        assert_eq!(out.len(), n, "sum_rows output length mismatch");
        out.iter_mut().for_each(|x| *x = 0.0);
        for i in 0..m {
            for (o, &v) in out.iter_mut().zip(&self.data[i * n..(i + 1) * n]) {
                *o += v;
            }
        }
    }

    /// Applies `f` to every element, returning a new tensor.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Multiplies every element by a scalar.
    #[must_use]
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor, which cannot occur).
    #[must_use]
    pub fn mean(&self) -> f32 {
        self.sum() / self.data.len() as f32
    }

    /// Index of the maximum element in each row of a 2-D tensor.
    #[must_use]
    pub fn argmax_rows(&self) -> Vec<usize> {
        let (m, n) = (self.rows(), self.cols());
        (0..m)
            .map(|i| {
                let row = &self.data[i * n..(i + 1) * n];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN in argmax"))
                    .map(|(idx, _)| idx)
                    .expect("rows are non-empty")
            })
            .collect()
    }

    /// Extracts the rows at `indices` of a 2-D tensor into a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[must_use]
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let n = self.cols();
        let mut data = Vec::with_capacity(indices.len() * n);
        for &i in indices {
            assert!(i < self.rows(), "row index {i} out of bounds");
            data.extend_from_slice(&self.data[i * n..(i + 1) * n]);
        }
        Tensor {
            shape: vec![indices.len(), n],
            data,
        }
    }

    /// Frobenius norm.
    #[must_use]
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// In-place AXPY: `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place scaled self-add: `self += alpha * self`, element-wise.
    ///
    /// Replaces the `axpy(alpha, &self.clone())` pattern (decoupled
    /// weight decay) without the clone; the per-element arithmetic is
    /// unchanged.
    pub fn axpy_self(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a += alpha * *a;
        }
    }

    /// Momentum velocity update: `self = momentum * self + grad`.
    ///
    /// Matches, bit for bit, the allocation-heavy sequence it replaced
    /// (`fill_zero` + `axpy(momentum, snapshot)` + `axpy(1.0, grad)`):
    /// each element is computed as `(0.0 + momentum * v) + g`. The
    /// leading `0.0 +` is load-bearing — it maps a `-0.0` product to
    /// `+0.0` exactly as accumulating onto a zeroed buffer did.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn momentum_update(&mut self, momentum: f32, grad: &Tensor) {
        assert_eq!(self.shape, grad.shape, "momentum_update shape mismatch");
        for (v, &g) in self.data.iter_mut().zip(&grad.data) {
            *v = (0.0 + momentum * *v) + g;
        }
    }

    /// Sets every element to zero (used to clear gradients).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }
}

fn checked_len(shape: &[usize]) -> usize {
    assert!(
        !shape.is_empty(),
        "tensor shape must have at least one dimension"
    );
    assert!(
        shape.iter().all(|&d| d > 0),
        "tensor dimensions must be non-zero: {shape:?}"
    );
    shape.iter().product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_full_eye() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let f = Tensor::full(&[2, 2], 3.0);
        assert_eq!(f.sum(), 12.0);
        let i = Tensor::eye(3);
        assert_eq!(i.sum(), 3.0);
        assert_eq!(i.at(1, 1), 1.0);
        assert_eq!(i.at(0, 1), 0.0);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.matmul(&Tensor::eye(2)).data(), a.data());
        assert_eq!(Tensor::eye(2).matmul(&a).data(), a.data());
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_naive_matches_blocked() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        assert_eq!(a.matmul_naive(&b), a.matmul(&b));
    }

    #[test]
    fn matmul_into_reuses_the_buffer() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::eye(2);
        let mut out = Tensor::full(&[2, 2], 9.9);
        let before = out.data().as_ptr();
        a.matmul_into(&b, &mut out);
        assert_eq!(out.data(), a.data(), "stale contents must be overwritten");
        a.matmul_into(&b, &mut out);
        assert_eq!(
            out.data().as_ptr(),
            before,
            "matmul_into must not reallocate the output"
        );
    }

    #[test]
    fn copy_from_reuses_the_buffer() {
        let src = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let mut dst = Tensor::full(&[3, 2], 9.9);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        let before = dst.data().as_ptr();
        dst.copy_from(&src);
        assert_eq!(
            dst.data().as_ptr(),
            before,
            "same-size refills must not reallocate"
        );
        // Shrinking copies reuse the allocation too.
        let small = Tensor::from_vec(vec![7.0], &[1, 1]);
        dst.copy_from(&small);
        assert_eq!(dst, small);
        assert_eq!(dst.data().as_ptr(), before);
    }

    #[test]
    #[should_panic(expected = "matmul output must be")]
    fn matmul_into_rejects_bad_output_shape() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 4]);
        let mut out = Tensor::zeros(&[2, 3]);
        a.matmul_into(&b, &mut out);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let t = a.transpose();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at(0, 1), 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[1, 2]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 3.0]);
        assert_eq!(a.hadamard(&b).data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
        assert_eq!(a.map(|x| x + 1.0).data(), &[2.0, 3.0]);
    }

    #[test]
    fn add_row_broadcasts() {
        let a = Tensor::zeros(&[2, 3]);
        let out = a.add_row(&[1.0, 2.0, 3.0]);
        assert_eq!(out.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn sum_rows_collapses_batch() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.sum_rows(), vec![4.0, 6.0]);
    }

    #[test]
    fn argmax_rows_finds_peaks() {
        let a = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.6, 0.3, 0.1], &[2, 3]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn gather_rows_selects() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let g = a.gather_rows(&[2, 0]);
        assert_eq!(g.shape(), &[2, 2]);
        assert_eq!(g.data(), &[5.0, 6.0, 1.0, 2.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let r = a.reshape(&[4, 1]);
        assert_eq!(r.shape(), &[4, 1]);
        assert_eq!(r.data(), a.data());
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_rejects_bad_count() {
        let _ = Tensor::zeros(&[2, 2]).reshape(&[3, 1]);
    }

    #[test]
    fn randn_is_seeded_and_spread() {
        let s = SeedStream::new(5);
        let a = Tensor::randn(&[10, 10], 1.0, s);
        let b = Tensor::randn(&[10, 10], 1.0, s);
        assert_eq!(a, b, "same seed must reproduce");
        let c = Tensor::randn(&[10, 10], 1.0, SeedStream::new(6));
        assert_ne!(a, c);
        let m = a.mean();
        assert!(m.abs() < 0.2, "mean should be near 0: {m}");
    }

    #[test]
    fn kaiming_scales_with_fan_in() {
        let s = SeedStream::new(5);
        let narrow = Tensor::kaiming(&[100, 100], 10, s);
        let wide = Tensor::kaiming(&[100, 100], 1000, s);
        assert!(narrow.norm() > wide.norm());
    }

    #[test]
    fn in_place_helpers_match_allocating_forms() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let mut t = Tensor::zeros(&[3, 2]);
        a.transpose_into(&mut t);
        assert_eq!(t, a.transpose());

        let mut sums = vec![0.0; 3];
        a.sum_rows_into(&mut sums);
        assert_eq!(sums, a.sum_rows());

        let mut b = a.clone();
        b.add_row_assign(&[1.0, 2.0, 3.0]);
        assert_eq!(b, a.add_row(&[1.0, 2.0, 3.0]));

        let mut d = a.clone();
        d.axpy_self(-0.5);
        let mut reference = a.clone();
        reference.axpy(-0.5, &a.clone());
        assert_eq!(d, reference);
    }

    #[test]
    fn momentum_update_matches_the_old_axpy_sequence() {
        // Includes a -0.0 velocity: the old sequence accumulated onto a
        // zeroed buffer, so `momentum * -0.0` lands as `+0.0`. A naive
        // `v = m*v + g` rewrite would produce `-0.0` here.
        let grad = Tensor::from_vec(vec![0.5, -0.0, 1.5], &[1, 3]);
        let start = Tensor::from_vec(vec![2.0, -0.0, -1.0], &[1, 3]);
        let momentum = 0.9;

        let mut old = start.clone();
        let snapshot = old.clone();
        old.fill_zero();
        old.axpy(momentum, &snapshot);
        old.axpy(1.0, &grad);

        let mut new = start.clone();
        new.momentum_update(momentum, &grad);
        for (a, b) in old.data().iter().zip(new.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn axpy_and_fill_zero() {
        let mut a = Tensor::full(&[1, 2], 1.0);
        let b = Tensor::full(&[1, 2], 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[2.0, 2.0]);
        a.fill_zero();
        assert_eq!(a.data(), &[0.0, 0.0]);
    }

    #[test]
    fn norm_is_frobenius() {
        let a = Tensor::from_vec(vec![3.0, 4.0], &[1, 2]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "dimensions must be non-zero")]
    fn zero_dimension_rejected() {
        let _ = Tensor::zeros(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_wrong_len() {
        let _ = Tensor::from_vec(vec![1.0], &[2, 2]);
    }
}
