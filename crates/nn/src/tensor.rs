//! Dense row-major `f32` tensors.
//!
//! [`Tensor`] is the single numeric container used by every layer, loss and
//! optimizer in the reproduction. It is intentionally small: federated
//! aggregation and DDPG only need 1-D/2-D (and, for convolutions, 4-D)
//! dense arrays with a handful of BLAS-1/BLAS-3 style kernels. The matmul
//! kernels use an `i-k-j` loop order over pre-sliced rows (auto-vectorizable,
//! no bounds checks in the inner loop) and parallelize over row bands with
//! [`crate::parallel::par_chunks_mut`] when the problem is large enough to
//! amortize thread spawn.

use crate::rng::Rng64;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense row-major tensor of `f32` values.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

/// Minimum number of multiply-adds before matmul goes parallel.
const PAR_MATMUL_FLOPS: usize = 1 << 18;

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, …, {:.4}]",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1]
            )
        }
    }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// All-zeros tensor with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; numel],
        }
    }

    /// Tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![value; numel],
        }
    }

    /// Build from an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            data.len(),
            "shape {shape:?} wants {numel} elements, got {}",
            data.len()
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Self {
            shape: vec![data.len()],
            data: data.to_vec(),
        }
    }

    /// I.i.d. normal entries `N(mean, std²)`.
    pub fn randn(shape: &[usize], mean: f32, std: f32, rng: &mut Rng64) -> Self {
        let mut t = Self::zeros(shape);
        rng.fill_normal(&mut t.data, mean, std);
        t
    }

    /// I.i.d. uniform entries from `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut Rng64) -> Self {
        let mut t = Self::zeros(shape);
        rng.fill_uniform(&mut t.data, lo, hi);
        t
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Shape as a slice.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Number of rows; 2-D tensors only.
    #[inline]
    pub fn rows(&self) -> usize {
        debug_assert_eq!(self.ndim(), 2, "rows() requires a 2-D tensor");
        self.shape[0]
    }

    /// Number of columns; 2-D tensors only.
    #[inline]
    pub fn cols(&self) -> usize {
        debug_assert_eq!(self.ndim(), 2, "cols() requires a 2-D tensor");
        self.shape[1]
    }

    /// Flat data slice.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(r, c)` of a 2-D tensor.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.ndim(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Mutable element at `(r, c)` of a 2-D tensor.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert_eq!(self.ndim(), 2);
        let cols = self.shape[1];
        &mut self.data[r * cols + c]
    }

    /// Row `r` of a 2-D tensor as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let cols = self.shape[self.ndim() - 1];
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutable row `r` of a 2-D tensor.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let cols = self.shape[self.ndim() - 1];
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Reinterpret with a new shape (same element count).
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            self.data.len(),
            "reshape to {shape:?} incompatible with {} elements",
            self.data.len()
        );
        self.shape = shape.to_vec();
        self
    }

    /// `true` if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    // ------------------------------------------------------------------
    // Element-wise arithmetic
    // ------------------------------------------------------------------

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        debug_assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place `self -= other`.
    pub fn sub_assign(&mut self, other: &Tensor) {
        debug_assert_eq!(self.shape, other.shape, "sub_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a -= b;
        }
    }

    /// In-place Hadamard product `self *= other`.
    pub fn mul_assign(&mut self, other: &Tensor) {
        debug_assert_eq!(self.shape, other.shape, "mul_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a *= b;
        }
    }

    /// In-place scalar multiply.
    pub fn scale(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// In-place `self += alpha * other` (BLAS axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        debug_assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Out-of-place `self + other`.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// Out-of-place `self - other`.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.sub_assign(other);
        out
    }

    /// Apply `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data.iter_mut() {
            *v = f(*v);
        }
    }

    /// Reset every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Index of the maximum element of each row (2-D tensors).
    pub fn argmax_rows(&self) -> Vec<usize> {
        debug_assert_eq!(self.ndim(), 2);
        (0..self.rows())
            .map(|r| {
                let row = self.row(r);
                let mut best = 0;
                let mut best_v = row[0];
                for (i, &v) in row.iter().enumerate().skip(1) {
                    if v > best_v {
                        best_v = v;
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product `self × other` for 2-D tensors, parallel over row
    /// blocks for large problems.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims mismatch: {k} vs {k2}");
        let mut out = Tensor::zeros(&[m, n]);
        let a = &self.data;
        let b = &other.data;
        let flops = m * n * k;
        // `row0` is the index of the first row held in `out_rows`.
        let kernel = |row0: usize, out_rows: &mut [f32]| {
            for (local_r, out_row) in out_rows.chunks_exact_mut(n).enumerate() {
                let r = row0 + local_r;
                let a_row = &a[r * k..(r + 1) * k];
                for (kk, &a_v) in a_row.iter().enumerate() {
                    if a_v == 0.0 {
                        continue;
                    }
                    let b_row = &b[kk * n..(kk + 1) * n];
                    for (o, &b_v) in out_row.iter_mut().zip(b_row.iter()) {
                        *o += a_v * b_v;
                    }
                }
            }
        };
        let threads = crate::parallel::max_threads().min(m);
        if flops >= PAR_MATMUL_FLOPS && threads > 1 {
            // Pieces are whole rows so each worker owns a disjoint row band.
            let rows_per_block = m.div_ceil(threads);
            crate::parallel::par_chunks_mut(&mut out.data, rows_per_block * n, |start, band| {
                kernel(start / n, band)
            });
        } else {
            kernel(0, &mut out.data);
        }
        out
    }

    /// `selfᵀ × other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2);
        assert_eq!(other.ndim(), 2);
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "t_matmul inner dims mismatch: {k} vs {k2}");
        let mut out = Tensor::zeros(&[m, n]);
        for kk in 0..k {
            let a_row = &self.data[kk * m..(kk + 1) * m];
            let b_row = &other.data[kk * n..(kk + 1) * n];
            for (r, &a_v) in a_row.iter().enumerate() {
                if a_v == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[r * n..(r + 1) * n];
                for (o, &b_v) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_v * b_v;
                }
            }
        }
        out
    }

    /// `self × otherᵀ` without materializing the transpose.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2);
        assert_eq!(other.ndim(), 2);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_t inner dims mismatch: {k} vs {k2}");
        let mut out = Tensor::zeros(&[m, n]);
        for r in 0..m {
            let a_row = &self.data[r * k..(r + 1) * k];
            let out_row = &mut out.data[r * n..(r + 1) * n];
            for (c, o) in out_row.iter_mut().enumerate() {
                let b_row = &other.data[c * k..(c + 1) * k];
                let mut acc = 0.0;
                for (&x, &y) in a_row.iter().zip(b_row.iter()) {
                    acc += x * y;
                }
                *o = acc;
            }
        }
        out
    }

    /// Explicit 2-D transpose.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.ndim(), 2);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(&[n, m]);
        for r in 0..m {
            for c in 0..n {
                out.data[c * m + r] = self.data[r * n + c];
            }
        }
        out
    }

    /// Broadcast-add a length-`cols` bias vector to every row of a 2-D
    /// tensor.
    pub fn add_row_vec(&mut self, bias: &Tensor) {
        debug_assert_eq!(self.ndim(), 2);
        debug_assert_eq!(bias.numel(), self.cols(), "bias length mismatch");
        let n = self.cols();
        for row in self.data.chunks_exact_mut(n) {
            for (v, &b) in row.iter_mut().zip(bias.data.iter()) {
                *v += b;
            }
        }
    }

    /// Column-wise sum of a 2-D tensor (gradient of a broadcast bias).
    pub fn sum_rows(&self) -> Tensor {
        debug_assert_eq!(self.ndim(), 2);
        let n = self.cols();
        let mut out = Tensor::zeros(&[n]);
        for row in self.data.chunks_exact(n) {
            for (o, &v) in out.data.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
        out
    }

    /// Dot product of two same-shape tensors viewed as flat vectors.
    pub fn dot(&self, other: &Tensor) -> f32 {
        debug_assert_eq!(self.numel(), other.numel(), "dot length mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Softmax over the last axis of a 2-D tensor (numerically stable).
    pub fn softmax_rows(&self) -> Tensor {
        debug_assert_eq!(self.ndim(), 2);
        let mut out = self.clone();
        let n = out.cols();
        for row in out.data.chunks_exact_mut(n) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            let inv = 1.0 / sum;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
        out
    }
}

/// Numerically-stable softmax of a flat slice, written into a new vector.
pub fn softmax(xs: &[f32]) -> Vec<f32> {
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut out: Vec<f32> = xs.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = out.iter().sum();
    let inv = 1.0 / sum;
    for v in out.iter_mut() {
        *v *= inv;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for r in 0..m {
            for c in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.at(r, kk) * b.at(kk, c);
                }
                *out.at_mut(r, c) = acc;
            }
        }
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        let u = Tensor::full(&[4], 2.5);
        assert!(u.data().iter().all(|&x| x == 2.5));
    }

    #[test]
    #[should_panic(expected = "wants")]
    fn from_vec_rejects_bad_length() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0; 3]);
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_matches_naive_random_and_parallel_path() {
        let mut rng = Rng64::new(1);
        // Large enough to cross PAR_MATMUL_FLOPS.
        let a = Tensor::randn(&[96, 80], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[80, 96], 0.0, 1.0, &mut rng);
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        assert_close(&fast, &slow, 1e-3);
    }

    #[test]
    fn matmul_row_bands_are_bit_identical_to_serial_rows() {
        let mut rng = Rng64::new(4);
        // A prime row count, so the bands cannot split the rows evenly.
        let (m, k, n) = (97, 80, 96);
        assert!(m * k * n >= PAR_MATMUL_FLOPS && k * n < PAR_MATMUL_FLOPS);
        let a = Tensor::randn(&[m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 0.0, 1.0, &mut rng);
        let banded = a.matmul(&b);
        let stacked: Vec<u32> = (0..m)
            .flat_map(|r| Tensor::from_vec(&[1, k], a.row(r).to_vec()).matmul(&b).data)
            .map(f32::to_bits)
            .collect();
        let banded: Vec<u32> = banded.data.iter().map(|v| v.to_bits()).collect();
        assert_eq!(banded, stacked);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let mut rng = Rng64::new(2);
        let a = Tensor::randn(&[7, 5], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[7, 4], 0.0, 1.0, &mut rng);
        let fused = a.t_matmul(&b);
        let explicit = a.transpose().matmul(&b);
        assert_close(&fused, &explicit, 1e-4);
    }

    #[test]
    fn matmul_t_equals_explicit_transpose() {
        let mut rng = Rng64::new(3);
        let a = Tensor::randn(&[6, 5], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(&[8, 5], 0.0, 1.0, &mut rng);
        let fused = a.matmul_t(&b);
        let explicit = a.matmul(&b.transpose());
        assert_close(&fused, &explicit, 1e-4);
    }

    #[test]
    #[should_panic(expected = "inner dims mismatch")]
    fn matmul_rejects_mismatched_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn elementwise_ops() {
        let mut a = Tensor::from_slice(&[1., 2., 3.]);
        let b = Tensor::from_slice(&[4., 5., 6.]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[5., 7., 9.]);
        a.sub_assign(&b);
        assert_eq!(a.data(), &[1., 2., 3.]);
        a.mul_assign(&b);
        assert_eq!(a.data(), &[4., 10., 18.]);
        a.scale(0.5);
        assert_eq!(a.data(), &[2., 5., 9.]);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[10., 15., 21.]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[1., -2., 3., 0.]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.norm_sq(), 14.0);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let t = Tensor::from_vec(&[2, 3], vec![0.1, 0.9, 0.5, 2.0, 2.0, -1.0]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn bias_broadcast_and_sum_rows_are_adjoint() {
        let mut x = Tensor::zeros(&[3, 2]);
        let b = Tensor::from_slice(&[1.0, -1.0]);
        x.add_row_vec(&b);
        assert_eq!(x.data(), &[1., -1., 1., -1., 1., -1.]);
        let s = x.sum_rows();
        assert_eq!(s.data(), &[3.0, -3.0]);
    }

    #[test]
    fn softmax_rows_on_simplex() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 1000., 1000., 1000.]);
        let s = t.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(s.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
        // Row of equal logits → uniform.
        for &p in s.row(1) {
            assert!((p - 1.0 / 3.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_flat_handles_extremes() {
        let s = softmax(&[-1e30, 0.0, 1e30]);
        assert!((s.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(s[2] > 0.999);
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::from_slice(&[1., 2., 3., 4., 5., 6.]).reshape(&[2, 3]);
        assert_eq!(t.at(1, 2), 6.0);
        let back = t.reshape(&[6]);
        assert_eq!(back.shape(), &[6]);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut t = Tensor::zeros(&[4]);
        assert!(t.is_finite());
        t.data_mut()[2] = f32::NAN;
        assert!(!t.is_finite());
    }

    #[test]
    fn serde_roundtrip() {
        let mut rng = Rng64::new(4);
        let t = Tensor::randn(&[3, 3], 0.0, 1.0, &mut rng);
        let json = serde_json::to_string(&t).unwrap();
        let back: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng64::new(5);
        let t = Tensor::randn(&[4, 7], 0.0, 1.0, &mut rng);
        assert_eq!(t.transpose().transpose(), t);
    }

    #[test]
    fn dot_matches_manual() {
        let a = Tensor::from_slice(&[1., 2., 3.]);
        let b = Tensor::from_slice(&[4., 5., 6.]);
        assert_eq!(a.dot(&b), 32.0);
    }
}
