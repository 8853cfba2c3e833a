//! Exact arbitrary-precision arithmetic for the hier-sched scheduling stack.
//!
//! Every quantity manipulated by the scheduling algorithms — processing
//! times, loads, LP coefficients, schedule segment endpoints, the makespan
//! `T` — is represented exactly. The paper's correctness arguments
//! (Lemma IV.1, Lemma V.1, the pseudoforest structure of LP vertex
//! solutions) rely on exact comparisons such as `TOT-LOAD[i, α] ≤ T` and
//! `Σ_i x_ij = 1`; floating point would turn those equalities into
//! tolerance checks and break the combinatorial structure the rounding
//! steps depend on. This crate provides:
//!
//! * [`BigUint`] — unsigned magnitude, little-endian `u64` limbs;
//! * [`BigInt`] — sign-magnitude signed integer;
//! * [`Rational`] — normalized fraction of two [`BigInt`]s (the workhorse
//!   type; the rest of the workspace uses the alias `Q = Rational`).
//!
//! The implementation favours obvious correctness over micro-optimized
//! arithmetic: schoolbook multiplication and binary-shift long division
//! are ample for the LP sizes the paper's experiments need (hundreds of
//! variables), and the simple representations keep the proptest oracles
//! easy to trust.

mod bigint;
mod biguint;
mod rational;

pub use bigint::BigInt;
pub use biguint::BigUint;
pub use rational::Rational;

/// Shorthand used across the workspace for exact rational quantities.
pub type Q = Rational;

/// Greatest common divisor of two `u64`s (binary / Stein's algorithm).
///
/// Used by limb-level fast paths; `BigUint::gcd` handles the general case.
pub fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            core::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Greatest common divisor of two `u128`s (binary / Stein's algorithm).
///
/// The workhorse of [`Rational`]'s small-value fast path: every reduce of
/// an `i128` fraction goes through here instead of `BigUint::gcd`.
/// Operands that both fit in 64 bits (almost all of them in practice)
/// take [`gcd_u64`]: same result, native-width shifts and compares.
pub fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    if let (Ok(a), Ok(b)) = (u64::try_from(a), u64::try_from(b)) {
        return gcd_u64(a, b) as u128;
    }
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            core::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_u128_basics() {
        assert_eq!(gcd_u128(0, 0), 0);
        assert_eq!(gcd_u128(0, 7), 7);
        assert_eq!(gcd_u128(12, 18), 6);
        assert_eq!(gcd_u128(u128::MAX, u128::MAX), u128::MAX);
        assert_eq!(gcd_u128(1 << 100, 1 << 20), 1 << 20);
        assert_eq!(gcd_u128(1 << 127, 3), 1);
    }

    #[test]
    fn gcd_u64_basics() {
        assert_eq!(gcd_u64(0, 0), 0);
        assert_eq!(gcd_u64(0, 7), 7);
        assert_eq!(gcd_u64(7, 0), 7);
        assert_eq!(gcd_u64(12, 18), 6);
        assert_eq!(gcd_u64(17, 13), 1);
        assert_eq!(gcd_u64(u64::MAX, u64::MAX), u64::MAX);
        assert_eq!(gcd_u64(1 << 63, 1 << 20), 1 << 20);
    }
}
