//! Dense univariate polynomials over `f64`.
//!
//! [`Poly1`] represents `Σ_i c_i x^i` as a coefficient vector. It is the
//! workhorse for the single-variable generating functions of the paper's
//! Examples 1 and 2: assigning `x` to a subset of leaves of an and/xor tree
//! and `1` to the rest yields a polynomial whose `i`-th coefficient is
//! `Pr(|pw ∩ S| = i)`.

use crate::Truncation;
use std::fmt;
use std::ops::{Add, AddAssign, Mul};

/// A dense univariate polynomial `c_0 + c_1 x + c_2 x^2 + …` over `f64`.
///
/// Invariant: `coeffs` is non-empty (the zero polynomial is `[0.0]`). Trailing
/// zero coefficients may be present; use [`Poly1::trim`] to drop them or
/// [`Poly1::degree`] which ignores them.
#[derive(Debug, Clone, PartialEq)]
pub struct Poly1 {
    coeffs: Vec<f64>,
}

impl Poly1 {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly1 { coeffs: vec![0.0] }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: f64) -> Self {
        Poly1 { coeffs: vec![c] }
    }

    /// The polynomial `x`.
    pub fn x() -> Self {
        Poly1 {
            coeffs: vec![0.0, 1.0],
        }
    }

    /// The "Bernoulli leaf" polynomial `q + p·x`.
    ///
    /// This is the generating function of a single independent tuple that is
    /// present (contributing one `x`) with probability `p` and absent with
    /// probability `q` (callers normally pass `q = 1 - p`).
    pub fn bernoulli(q: f64, p: f64) -> Self {
        Poly1 { coeffs: vec![q, p] }
    }

    /// Builds a polynomial from a coefficient vector (`coeffs[i]` is the
    /// coefficient of `x^i`). An empty vector yields the zero polynomial.
    pub fn from_coeffs(coeffs: Vec<f64>) -> Self {
        let poly = if coeffs.is_empty() {
            Self::zero()
        } else {
            Poly1 { coeffs }
        };
        poly.debug_assert_invariants();
        poly
    }

    /// The coefficient of `x^i` (zero when `i` exceeds the stored degree).
    #[inline]
    pub fn coeff(&self, i: usize) -> f64 {
        self.coeffs.get(i).copied().unwrap_or(0.0)
    }

    /// Borrow the raw coefficient slice (index `i` ↦ coefficient of `x^i`).
    #[inline]
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// The degree of the polynomial, ignoring trailing (near-)zero
    /// coefficients. The zero polynomial has degree 0 by convention.
    pub fn degree(&self) -> usize {
        self.coeffs.iter().rposition(|&c| c != 0.0).unwrap_or(0)
    }

    /// Number of stored coefficients (degree bound + 1).
    #[inline]
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// True when no coefficients are stored beyond the constant term and it is
    /// zero.
    pub fn is_empty(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0.0)
    }

    /// Overwrites `self` with a copy of `other`, reusing the existing
    /// coefficient buffer (no allocation once the buffer is large enough).
    pub fn copy_from(&mut self, other: &Poly1) {
        self.coeffs.clear();
        self.coeffs.extend_from_slice(&other.coeffs);
    }

    /// Overwrites `self` with the constant polynomial `c`, reusing the
    /// existing coefficient buffer.
    pub fn set_constant(&mut self, c: f64) {
        self.coeffs.clear();
        self.coeffs.push(c);
    }

    /// Removes trailing exactly-zero coefficients (keeps at least one).
    pub fn trim(&mut self) {
        while self.coeffs.len() > 1 && *self.coeffs.last().unwrap() == 0.0 {
            self.coeffs.pop();
        }
    }

    /// Evaluates the polynomial at `x` by Horner's rule.
    pub fn eval(&self, x: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }

    /// Sum of all coefficients — equivalently `eval(1.0)`. For a probability
    /// generating function this is the total probability mass (≈ 1).
    pub fn total_mass(&self) -> f64 {
        self.coeffs.iter().sum()
    }

    /// Expected degree `Σ i·c_i` — for a world-size generating function this
    /// is the expected possible-world size.
    pub fn expectation(&self) -> f64 {
        self.coeffs
            .iter()
            .enumerate()
            .map(|(i, &c)| i as f64 * c)
            .sum()
    }

    /// Sum of coefficients with index `≤ k` — for a rank generating function
    /// `Σ_{i ≤ k} Pr(X = i)` = `Pr(X ≤ k)`.
    pub fn prefix_mass(&self, k: usize) -> f64 {
        self.coeffs.iter().take(k + 1).sum()
    }

    /// Multiplies every coefficient by `s`.
    pub fn scale(&self, s: f64) -> Self {
        Poly1 {
            coeffs: self.coeffs.iter().map(|&c| c * s).collect(),
        }
    }

    /// Adds `other` scaled by `s` into `self` in place (`self += s·other`).
    pub fn add_scaled_assign(&mut self, other: &Poly1, s: f64) {
        if other.coeffs.len() > self.coeffs.len() {
            self.coeffs.resize(other.coeffs.len(), 0.0);
        }
        for (a, &b) in self.coeffs.iter_mut().zip(other.coeffs.iter()) {
            *a += s * b;
        }
    }

    /// Adds a constant to the constant term in place.
    pub fn add_constant_assign(&mut self, c: f64) {
        self.coeffs[0] += c;
    }

    /// Full product of two polynomials (no truncation).
    pub fn mul_full(&self, other: &Poly1) -> Self {
        self.mul_truncated(other, Truncation::None)
    }

    /// Product of two polynomials, keeping only coefficients of degree at most
    /// the truncation cap. Truncated products are the key to `O(n·k)` Top-k
    /// computations: every intermediate product drops terms that can never be
    /// read.
    pub fn mul_truncated(&self, other: &Poly1, trunc: Truncation) -> Self {
        let natural = self.coeffs.len() + other.coeffs.len() - 2;
        let cap = trunc.cap(natural);
        let mut out = vec![0.0; cap + 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if i > cap || a == 0.0 {
                continue;
            }
            let jmax = (cap - i).min(other.coeffs.len() - 1);
            for (j, &b) in other.coeffs.iter().enumerate().take(jmax + 1) {
                out[i + j] += a * b;
            }
        }
        Poly1 { coeffs: out }
    }

    /// In-place truncated product `self ← self · other` through a caller-
    /// provided scratch buffer, so hot batch loops never allocate per
    /// multiply: the product is written into `scratch` (cleared and resized
    /// as needed) and swapped into `self`. The coefficient arithmetic and its
    /// order are identical to [`Poly1::mul_truncated`], so the results are
    /// bit-identical to the allocating path.
    pub fn mul_assign_truncated(
        &mut self,
        other: &Poly1,
        trunc: Truncation,
        scratch: &mut Vec<f64>,
    ) {
        let natural = self.coeffs.len() + other.coeffs.len() - 2;
        let cap = trunc.cap(natural);
        scratch.clear();
        scratch.resize(cap + 1, 0.0);
        for (i, &a) in self.coeffs.iter().enumerate() {
            if i > cap || a == 0.0 {
                continue;
            }
            let jmax = (cap - i).min(other.coeffs.len() - 1);
            for (j, &b) in other.coeffs.iter().enumerate().take(jmax + 1) {
                scratch[i + j] += a * b;
            }
        }
        std::mem::swap(&mut self.coeffs, scratch);
        self.debug_assert_invariants();
    }

    /// Debug-build invariant check: the coefficient vector is never empty and
    /// every coefficient is finite. Probability-valued generating functions
    /// additionally keep coefficients in `[-ε, 1 + ε]`; that stronger check
    /// lives at the call sites that know they hold probabilities (see
    /// [`crate::clamp_probability`]).
    #[inline]
    pub fn debug_assert_invariants(&self) {
        debug_assert!(
            !self.coeffs.is_empty(),
            "Poly1 invariant violated: empty coefficient vector"
        );
        debug_assert!(
            self.coeffs.iter().all(|c| c.is_finite()),
            "Poly1 invariant violated: non-finite coefficient in {:?}",
            self.coeffs
        );
    }

    /// Multiplies by the Bernoulli leaf `q + p·x` in place, truncated.
    ///
    /// This is the hot path when evaluating a generating function over a tree
    /// with thousands of independent leaves: instead of allocating a fresh
    /// polynomial per leaf we update the accumulator in place.
    pub fn mul_bernoulli_assign(&mut self, q: f64, p: f64, trunc: Truncation) {
        let natural = self.coeffs.len(); // degree grows by exactly one
        let cap = trunc.cap(natural);
        let old_len = self.coeffs.len();
        if cap + 1 > old_len {
            self.coeffs.resize(cap + 1, 0.0);
        } else if cap + 1 < old_len {
            self.coeffs.truncate(cap + 1);
        }
        // Process from the highest degree downwards so each old coefficient is
        // read before being overwritten.
        for i in (0..self.coeffs.len()).rev() {
            let lower = if i < old_len { self.coeffs[i] } else { 0.0 };
            let from_below = if i > 0 { self.coeffs[i - 1] } else { 0.0 };
            self.coeffs[i] = q * lower + p * from_below;
        }
    }

    /// Truncate in place to degree `k` (drop all higher coefficients).
    pub fn truncate_degree(&mut self, k: usize) {
        self.coeffs.truncate(k + 1);
        if self.coeffs.is_empty() {
            self.coeffs.push(0.0);
        }
    }

    /// In-place ∨-node **mixture delta** for a changed child polynomial:
    /// with `A_∨ = leftover + Σ w_i·A_i`, replacing child `j`'s polynomial is
    /// the linear update `A_∨ += w_j·(A_j' − A_j)`. Performs exactly the two
    /// [`Poly1::add_scaled_assign`] calls (new child first), so callers that
    /// previously inlined them (the batch rank-PMF sweep) stay bit-identical.
    pub fn mixture_delta_assign(&mut self, new_child: &Poly1, old_child: &Poly1, w: f64) {
        self.add_scaled_assign(new_child, w);
        self.add_scaled_assign(old_child, -w);
    }

    /// In-place ∨-node **edge-probability patch**: with
    /// `A_∨ = (1 − Σ w_i) + Σ w_i·A_i`, changing one edge's probability
    /// `w_j → w_j'` is the linear update `A_∨ += (w_j' − w_j)·(A_j − 1)` —
    /// the child's polynomial gains weight and the leftover ("nothing
    /// materialises") constant loses exactly that weight. This is the
    /// polynomial-level statement of what a `cpdb_live` single-∨
    /// probability delta does to a node's generating function, pinned by
    /// the mutation tests against a from-scratch [`Poly1::xor_combine`] on
    /// the patched weights. Note the serving engine does **not** patch
    /// cached rank polynomials through it (patched summation orders would
    /// break the bit-identity contract with fresh builds); it rebuilds rank
    /// contexts and keeps this identity as the documented, tested algebra
    /// for callers maintaining their own ∨ mixtures incrementally.
    pub fn xor_edge_patch(&mut self, child: &Poly1, old_w: f64, new_w: f64) {
        let dw = new_w - old_w;
        self.add_scaled_assign(child, dw);
        self.add_constant_assign(-dw);
        self.debug_assert_invariants();
    }

    /// Returns the probability-weighted mixture `Σ w_i·p_i + (1 - Σ w_i)·1`
    /// used at ∨ (xor) nodes: each child polynomial `p_i` is taken with
    /// probability `w_i`, and with the leftover probability the node
    /// contributes the empty set (the constant polynomial 1).
    pub fn xor_combine(children: &[(f64, Poly1)]) -> Self {
        let leftover: f64 = 1.0 - children.iter().map(|(w, _)| *w).sum::<f64>();
        let mut out = Poly1::constant(leftover);
        for (w, p) in children {
            out.add_scaled_assign(p, *w);
        }
        out.debug_assert_invariants();
        out
    }
}

impl Default for Poly1 {
    fn default() -> Self {
        Self::zero()
    }
}

impl Add<&Poly1> for &Poly1 {
    type Output = Poly1;
    fn add(self, rhs: &Poly1) -> Poly1 {
        let mut out = self.clone();
        out.add_scaled_assign(rhs, 1.0);
        out
    }
}

impl AddAssign<&Poly1> for Poly1 {
    fn add_assign(&mut self, rhs: &Poly1) {
        self.add_scaled_assign(rhs, 1.0);
    }
}

impl Mul<&Poly1> for &Poly1 {
    type Output = Poly1;
    fn mul(self, rhs: &Poly1) -> Poly1 {
        self.mul_full(rhs)
    }
}

impl fmt::Display for Poly1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (i, &c) in self.coeffs.iter().enumerate() {
            if c == 0.0 && !(i == 0 && self.is_empty()) {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            match i {
                0 => write!(f, "{c}")?,
                1 => write!(f, "{c}·x")?,
                _ => write!(f, "{c}·x^{i}")?,
            }
        }
        if first {
            write!(f, "0")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::approx_eq;

    #[test]
    fn zero_and_constant_basics() {
        let z = Poly1::zero();
        assert_eq!(z.degree(), 0);
        assert!(z.is_empty());
        let c = Poly1::constant(0.4);
        assert_eq!(c.coeff(0), 0.4);
        assert_eq!(c.coeff(3), 0.0);
        assert_eq!(c.degree(), 0);
    }

    #[test]
    fn bernoulli_product_matches_binomial() {
        // (0.5 + 0.5x)^4 has coefficients C(4,i)/16.
        let leaf = Poly1::bernoulli(0.5, 0.5);
        let mut acc = Poly1::constant(1.0);
        for _ in 0..4 {
            acc = acc.mul_full(&leaf);
        }
        let expected = [1.0, 4.0, 6.0, 4.0, 1.0].map(|c| c / 16.0);
        for (i, e) in expected.iter().enumerate() {
            assert!(approx_eq(acc.coeff(i), *e), "i={i}");
        }
        assert!(approx_eq(acc.total_mass(), 1.0));
        assert!(approx_eq(acc.expectation(), 2.0));
    }

    #[test]
    fn truncated_product_matches_prefix_of_full_product() {
        let a = Poly1::from_coeffs(vec![0.1, 0.2, 0.3, 0.4]);
        let b = Poly1::from_coeffs(vec![0.5, 0.25, 0.25]);
        let full = a.mul_full(&b);
        let trunc = a.mul_truncated(&b, Truncation::Degree(2));
        assert_eq!(trunc.len(), 3);
        for i in 0..3 {
            assert!(approx_eq(full.coeff(i), trunc.coeff(i)));
        }
    }

    #[test]
    fn mul_bernoulli_assign_matches_mul_full() {
        let a = Poly1::from_coeffs(vec![0.3, 0.4, 0.3]);
        let mut b = a.clone();
        b.mul_bernoulli_assign(0.7, 0.3, Truncation::None);
        let expected = a.mul_full(&Poly1::bernoulli(0.7, 0.3));
        for i in 0..expected.len() {
            assert!(approx_eq(b.coeff(i), expected.coeff(i)), "i={i}");
        }
    }

    #[test]
    fn mul_bernoulli_assign_truncated() {
        let a = Poly1::from_coeffs(vec![0.25; 4]);
        let mut b = a.clone();
        b.mul_bernoulli_assign(0.6, 0.4, Truncation::Degree(2));
        let expected = a.mul_truncated(&Poly1::bernoulli(0.6, 0.4), Truncation::Degree(2));
        assert_eq!(b.len(), 3);
        for i in 0..3 {
            assert!(approx_eq(b.coeff(i), expected.coeff(i)), "i={i}");
        }
    }

    #[test]
    fn mul_assign_truncated_bit_matches_mul_truncated() {
        let a = Poly1::from_coeffs(vec![0.1, 0.2, 0.3, 0.4]);
        let b = Poly1::from_coeffs(vec![0.5, 0.25, 0.25]);
        for trunc in [
            Truncation::None,
            Truncation::Degree(2),
            Truncation::Degree(0),
        ] {
            let expected = a.mul_truncated(&b, trunc);
            let mut got = a.clone();
            let mut scratch = Vec::new();
            got.mul_assign_truncated(&b, trunc, &mut scratch);
            assert_eq!(got.len(), expected.len());
            for i in 0..expected.len() {
                assert_eq!(got.coeff(i).to_bits(), expected.coeff(i).to_bits(), "i={i}");
            }
            // The swapped-out buffer is reusable: a second product must not
            // be polluted by stale coefficients.
            let mut again = a.clone();
            again.mul_assign_truncated(&b, trunc, &mut scratch);
            assert_eq!(again, got);
        }
    }

    #[test]
    fn eval_horner_and_total_mass() {
        let p = Poly1::from_coeffs(vec![1.0, -2.0, 3.0]);
        assert!(approx_eq(p.eval(2.0), 1.0 - 4.0 + 12.0));
        assert!(approx_eq(p.eval(0.0), 1.0));
        assert!(approx_eq(p.total_mass(), 2.0));
    }

    #[test]
    fn prefix_mass_is_cdf() {
        let p = Poly1::from_coeffs(vec![0.1, 0.2, 0.3, 0.4]);
        assert!(approx_eq(p.prefix_mass(0), 0.1));
        assert!(approx_eq(p.prefix_mass(2), 0.6));
        assert!(approx_eq(p.prefix_mass(10), 1.0));
    }

    #[test]
    fn xor_combine_keeps_leftover_mass() {
        // Two children with prob 0.3 / 0.2, leftover 0.5 goes to the constant.
        let children = vec![
            (0.3, Poly1::x()),
            (0.2, Poly1::from_coeffs(vec![0.0, 0.0, 1.0])),
        ];
        let c = Poly1::xor_combine(&children);
        assert!(approx_eq(c.coeff(0), 0.5));
        assert!(approx_eq(c.coeff(1), 0.3));
        assert!(approx_eq(c.coeff(2), 0.2));
        assert!(approx_eq(c.total_mass(), 1.0));
    }

    #[test]
    fn display_formats_nonzero_terms() {
        let p = Poly1::from_coeffs(vec![0.5, 0.0, 0.25]);
        let s = format!("{p}");
        assert!(s.contains("0.5"));
        assert!(s.contains("x^2"));
        assert!(!s.contains("x +"));
    }

    #[test]
    fn trim_removes_trailing_zeros() {
        let mut p = Poly1::from_coeffs(vec![0.5, 0.5, 0.0, 0.0]);
        p.trim();
        assert_eq!(p.len(), 2);
        let mut z = Poly1::from_coeffs(vec![0.0, 0.0]);
        z.trim();
        assert_eq!(z.len(), 1);
    }

    #[test]
    fn add_and_mul_operators() {
        let a = Poly1::from_coeffs(vec![1.0, 1.0]);
        let b = Poly1::from_coeffs(vec![1.0, 1.0]);
        let sum = &a + &b;
        assert!(approx_eq(sum.coeff(0), 2.0));
        let prod = &a * &b;
        assert!(approx_eq(prod.coeff(0), 1.0));
        assert!(approx_eq(prod.coeff(1), 2.0));
        assert!(approx_eq(prod.coeff(2), 1.0));
    }

    #[test]
    fn truncate_degree_in_place() {
        let mut p = Poly1::from_coeffs(vec![0.1, 0.2, 0.3, 0.4]);
        p.truncate_degree(1);
        assert_eq!(p.len(), 2);
        assert!(approx_eq(p.coeff(1), 0.2));
    }

    #[test]
    fn mixture_delta_matches_inlined_add_scaled_pair() {
        let old_child = Poly1::from_coeffs(vec![0.2, 0.8]);
        let new_child = Poly1::from_coeffs(vec![0.0, 0.5, 0.5]);
        let mut via_helper = Poly1::from_coeffs(vec![0.4, 0.6]);
        let mut inlined = via_helper.clone();
        via_helper.mixture_delta_assign(&new_child, &old_child, 0.3);
        inlined.add_scaled_assign(&new_child, 0.3);
        inlined.add_scaled_assign(&old_child, -0.3);
        assert_eq!(via_helper.coeffs(), inlined.coeffs());
    }

    #[test]
    fn xor_edge_patch_matches_recombined_mixture() {
        // A_∨ over two children; patching the second edge 0.3 → 0.45 must
        // agree with rebuilding the mixture from the patched weights.
        let c1 = Poly1::from_coeffs(vec![0.1, 0.9]);
        let c2 = Poly1::from_coeffs(vec![0.5, 0.25, 0.25]);
        let mut patched = Poly1::xor_combine(&[(0.2, c1.clone()), (0.3, c2.clone())]);
        patched.xor_edge_patch(&c2, 0.3, 0.45);
        let fresh = Poly1::xor_combine(&[(0.2, c1), (0.45, c2)]);
        for i in 0..3 {
            assert!(
                (patched.coeff(i) - fresh.coeff(i)).abs() < 1e-15,
                "coefficient {i}: patched {} vs fresh {}",
                patched.coeff(i),
                fresh.coeff(i)
            );
        }
    }
}
