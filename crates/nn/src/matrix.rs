//! Dense row-major matrices with the operations a small GCN needs.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense `rows × cols` matrix, row-major.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage, `data[r * cols + c]`.
    pub data: Vec<f64>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Build from nested rows.
    ///
    /// # Panics
    /// Panics on ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Matrix {
            rows: r,
            cols: c,
            data: rows.iter().flatten().copied().collect(),
        }
    }

    /// Xavier/Glorot-uniform initialization.
    pub fn xavier<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-bound..bound))
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }

    /// Row slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self · other`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[r * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let out_row = &mut out.data[r * other.cols..(r + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Add a row vector (bias) to every row.
    ///
    /// # Panics
    /// Panics if `bias.len() != cols`.
    pub fn add_row_bias(&self, bias: &[f64]) -> Matrix {
        assert_eq!(bias.len(), self.cols);
        let mut out = self.clone();
        for r in 0..out.rows {
            for (c, &b) in bias.iter().enumerate() {
                out.data[r * out.cols + c] += b;
            }
        }
        out
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise product (Hadamard).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| a * b)
                .collect(),
        }
    }

    /// Column sums (used for bias gradients).
    pub fn col_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
        sums
    }

    /// Column means; zero-row matrices yield zeros.
    pub fn col_means(&self) -> Vec<f64> {
        if self.rows == 0 {
            return vec![0.0; self.cols];
        }
        self.col_sums()
            .into_iter()
            .map(|s| s / self.rows as f64)
            .collect()
    }

    /// Column maxima with the argmax row per column; zero-row matrices
    /// yield zeros with argmax 0.
    pub fn col_max_argmax(&self) -> (Vec<f64>, Vec<usize>) {
        if self.rows == 0 {
            return (vec![0.0; self.cols], vec![0; self.cols]);
        }
        let mut max = self.row(0).to_vec();
        let mut arg = vec![0usize; self.cols];
        for r in 1..self.rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                if v > max[c] {
                    max[c] = v;
                    arg[c] = r;
                }
            }
        }
        (max, arg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let b = Matrix::from_rows(&[vec![4.0], vec![5.0], vec![6.0]]);
        let c = a.matmul(&b);
        assert_eq!((c.rows, c.cols), (1, 1));
        assert_eq!(c.get(0, 0), 32.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn bias_and_map() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0]]);
        let b = a.add_row_bias(&[10.0, 20.0]);
        assert_eq!(b.row(0), &[11.0, 18.0]);
        let r = b.map(|v| v.max(0.0));
        assert_eq!(r.row(0), &[11.0, 18.0]);
        let neg = a.map(|v| v.max(0.0));
        assert_eq!(neg.row(0), &[1.0, 0.0]);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_rows(&[vec![1.0, 5.0], vec![3.0, 2.0]]);
        assert_eq!(a.col_sums(), vec![4.0, 7.0]);
        assert_eq!(a.col_means(), vec![2.0, 3.5]);
        let (max, arg) = a.col_max_argmax();
        assert_eq!(max, vec![3.0, 5.0]);
        assert_eq!(arg, vec![1, 0]);
    }

    #[test]
    fn hadamard_is_elementwise() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert_eq!(a.hadamard(&b).row(0), &[3.0, 8.0]);
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Matrix::xavier(20, 30, &mut rng);
        let bound = (6.0f64 / 50.0).sqrt();
        assert!(m.data.iter().all(|&v| v.abs() <= bound));
    }

    #[test]
    fn empty_matrix_reductions() {
        let m = Matrix::zeros(0, 3);
        assert_eq!(m.col_means(), vec![0.0; 3]);
        let (max, arg) = m.col_max_argmax();
        assert_eq!(max, vec![0.0; 3]);
        assert_eq!(arg, vec![0; 3]);
    }
}
