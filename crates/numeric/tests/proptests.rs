//! Property-based tests: the numeric crate must behave as the mathematical
//! structures it models (ℕ for BigUint, ℤ for BigInt, ℚ for Rational),
//! cross-checked against i128 arithmetic as the oracle.

use numeric::{gcd_u128, gcd_u64, BigInt, BigUint, Rational};
use proptest::prelude::*;

fn big(v: u64) -> BigUint {
    BigUint::from_u64(v)
}

/// Pure-BigInt rational reference for the fast-path differential test:
/// deliberately naive (no cross-reduction tricks, no small representation)
/// so it shares no code with `Rational`'s i128 fast path.
#[derive(Clone, Debug)]
struct RefRat {
    num: BigInt,
    den: BigInt,
}

impl RefRat {
    fn new(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero());
        let (mut num, mut den) = if den.is_negative() { (-num, -den) } else { (num, den) };
        if num.is_zero() {
            return RefRat { num: BigInt::zero(), den: BigInt::one() };
        }
        let g = num.gcd(&den);
        if g != BigInt::one() {
            num = num.div_rem(&g).0;
            den = den.div_rem(&g).0;
        }
        RefRat { num, den }
    }

    fn add(&self, o: &RefRat) -> RefRat {
        RefRat::new(
            self.num.mul_ref(&o.den).add_ref(&o.num.mul_ref(&self.den)),
            self.den.mul_ref(&o.den),
        )
    }

    fn sub(&self, o: &RefRat) -> RefRat {
        RefRat::new(
            self.num.mul_ref(&o.den).sub_ref(&o.num.mul_ref(&self.den)),
            self.den.mul_ref(&o.den),
        )
    }

    fn mul(&self, o: &RefRat) -> RefRat {
        RefRat::new(self.num.mul_ref(&o.num), self.den.mul_ref(&o.den))
    }

    fn div(&self, o: &RefRat) -> RefRat {
        RefRat::new(self.num.mul_ref(&o.den), self.den.mul_ref(&o.num))
    }

    fn cmp(&self, o: &RefRat) -> std::cmp::Ordering {
        self.num.mul_ref(&o.den).cmp(&o.num.mul_ref(&self.den))
    }
}

/// `(v << shift)` as a BigInt — large shifts push operands out of i128.
fn shift_i64(v: i64, shift: u32) -> BigInt {
    let mut acc = BigInt::from_i64(v);
    let two = BigInt::from_i64(2);
    for _ in 0..shift {
        acc = acc.mul_ref(&two);
    }
    acc
}

/// `x ∘ y` for all four field operations and the order, through
/// `Rational` and through the BigInt reference: any disagreement in the
/// canonical numerator/denominator is a fast-path bug.
fn check_against_reference(x: &Rational, y: &Rational) -> Result<(), TestCaseError> {
    let rx = RefRat::new(x.numer(), x.denom());
    let ry = RefRat::new(y.numer(), y.denom());
    let mut results = vec![
        ("+", x.clone() + y.clone(), rx.add(&ry)),
        ("-", x.clone() - y.clone(), rx.sub(&ry)),
        ("*", x.clone() * y.clone(), rx.mul(&ry)),
    ];
    if !y.is_zero() {
        results.push(("/", x.clone() / y.clone(), rx.div(&ry)));
    }
    for (op, fast, reference) in results {
        prop_assert_eq!(fast.numer(), reference.num.clone(), "{:?} {} {:?}: numerator", x, op, y);
        prop_assert_eq!(fast.denom(), reference.den.clone(), "{:?} {} {:?}: denominator", x, op, y);
        // Canonical form: the value rebuilt from its parts is equal.
        prop_assert_eq!(&Rational::new(fast.numer(), fast.denom()), &fast);
    }
    prop_assert_eq!(x.cmp(y), rx.cmp(&ry), "{:?} vs {:?}", x, y);
    Ok(())
}

/// `±mag / den` built through the normalizing constructor (which itself
/// takes the small path's gcd and division).
fn q128(negative: bool, mag: u64, den: u64) -> Rational {
    let num = if negative { -(mag as i128) } else { mag as i128 };
    Rational::new(BigInt::from_i128(num), BigInt::from_i128(den as i128))
}

proptest! {
    #[test]
    fn biguint_add_matches_u128(a: u64, b: u64) {
        let s = big(a).add(&big(b));
        prop_assert_eq!(s.to_u128(), Some(a as u128 + b as u128));
    }

    #[test]
    fn biguint_mul_matches_u128(a: u64, b: u64) {
        let p = big(a).mul(&big(b));
        prop_assert_eq!(p.to_u128(), Some(a as u128 * b as u128));
    }

    #[test]
    fn biguint_divrem_invariant(a: u128, b in 1u128..) {
        let (q, r) = BigUint::from_u128(a).div_rem(&BigUint::from_u128(b));
        prop_assert_eq!(q.to_u128(), Some(a / b));
        prop_assert_eq!(r.to_u128(), Some(a % b));
    }

    #[test]
    fn biguint_mul_then_div_roundtrip(a: u128, b in 1u64..) {
        let prod = BigUint::from_u128(a).mul(&big(b));
        let (q, r) = prod.div_rem(&big(b));
        prop_assert_eq!(q, BigUint::from_u128(a));
        prop_assert!(r.is_zero());
    }

    #[test]
    fn biguint_shift_roundtrip(a: u128, s in 0u64..300) {
        let x = BigUint::from_u128(a);
        prop_assert_eq!(x.shl(s).shr(s), x);
    }

    #[test]
    fn biguint_decimal_roundtrip(a: u128) {
        let x = BigUint::from_u128(a);
        prop_assert_eq!(BigUint::from_decimal(&x.to_string()), Some(x));
    }

    #[test]
    fn biguint_gcd_divides_both(a: u64, b: u64) {
        let g = big(a).gcd(&big(b));
        if !g.is_zero() {
            prop_assert!(big(a).div_rem(&g).1.is_zero());
            prop_assert!(big(b).div_rem(&g).1.is_zero());
        } else {
            prop_assert_eq!((a, b), (0, 0));
        }
    }

    #[test]
    fn bigint_ring_laws(a: i64, b: i64, c: i64) {
        let (x, y, z) = (BigInt::from_i64(a), BigInt::from_i64(b), BigInt::from_i64(c));
        // commutativity / associativity / distributivity
        prop_assert_eq!(x.add_ref(&y), y.add_ref(&x));
        prop_assert_eq!(x.add_ref(&y).add_ref(&z), x.add_ref(&y.add_ref(&z)));
        prop_assert_eq!(x.mul_ref(&y), y.mul_ref(&x));
        prop_assert_eq!(x.mul_ref(&y).mul_ref(&z), x.mul_ref(&y.mul_ref(&z)));
        prop_assert_eq!(
            x.mul_ref(&y.add_ref(&z)),
            x.mul_ref(&y).add_ref(&x.mul_ref(&z))
        );
    }

    #[test]
    fn bigint_sub_add_inverse(a: i64, b: i64) {
        let (x, y) = (BigInt::from_i64(a), BigInt::from_i64(b));
        prop_assert_eq!(x.sub_ref(&y).add_ref(&y), x);
    }

    #[test]
    fn bigint_divrem_identity(a: i64, b in prop::num::i64::ANY.prop_filter("nonzero", |v| *v != 0)) {
        let (x, y) = (BigInt::from_i64(a), BigInt::from_i64(b));
        let (q, r) = x.div_rem(&y);
        prop_assert_eq!(q.mul_ref(&y).add_ref(&r), x);
        prop_assert!(r.abs() < y.abs());
    }

    #[test]
    fn bigint_order_consistent_with_i64(a: i64, b: i64) {
        prop_assert_eq!(BigInt::from_i64(a).cmp(&BigInt::from_i64(b)), a.cmp(&b));
    }

    #[test]
    fn rational_field_laws(
        an in -1000i64..1000, ad in 1i64..100,
        bn in -1000i64..1000, bd in 1i64..100,
        cn in -1000i64..1000, cd in 1i64..100,
    ) {
        let a = Rational::ratio(an, ad);
        let b = Rational::ratio(bn, bd);
        let c = Rational::ratio(cn, cd);
        prop_assert_eq!(a.clone() + b.clone(), b.clone() + a.clone());
        prop_assert_eq!((a.clone() + b.clone()) + c.clone(), a.clone() + (b.clone() + c.clone()));
        prop_assert_eq!(a.clone() * b.clone(), b.clone() * a.clone());
        prop_assert_eq!(
            a.clone() * (b.clone() + c.clone()),
            a.clone() * b.clone() + a.clone() * c.clone()
        );
        prop_assert_eq!(a.clone() - a.clone(), Rational::zero());
        if !a.is_zero() {
            prop_assert_eq!(a.clone() * a.recip(), Rational::one());
        }
    }

    #[test]
    fn rational_normalized(an in -10000i64..10000, ad in 1i64..1000) {
        let a = Rational::ratio(an, ad);
        // lowest terms: gcd(num, den) == 1 (or num == 0 with den == 1)
        let g = a.numer().gcd(&a.denom());
        if a.is_zero() {
            prop_assert!(a.denom() == BigInt::one());
        } else {
            prop_assert_eq!(g, BigInt::one());
        }
        prop_assert!(a.denom().is_positive());
    }

    #[test]
    fn rational_floor_ceil_bracket(an in -10000i64..10000, ad in 1i64..1000) {
        let a = Rational::ratio(an, ad);
        let fl = Rational::from_bigint(a.floor());
        let ce = Rational::from_bigint(a.ceil());
        prop_assert!(fl <= a && a <= ce);
        prop_assert!(a.clone() - fl.clone() < Rational::one());
        prop_assert!(ce - a.clone() < Rational::one());
    }

    #[test]
    fn rational_rem_euclid_in_range(
        an in -10000i64..10000, ad in 1i64..100,
        mn in 1i64..1000, md in 1i64..100,
    ) {
        let a = Rational::ratio(an, ad);
        let m = Rational::ratio(mn, md);
        let r = a.rem_euclid(&m);
        prop_assert!(r >= Rational::zero());
        prop_assert!(r < m);
        // a - r is an integer multiple of m
        let k = (a - r) / m;
        prop_assert!(k.is_integer());
    }

    /// Differential test for the i128 small-value fast path: random
    /// left-deep expression trees over ±, ×, ÷ evaluated with `Rational`
    /// (fast path + overflow escape) must agree with a pure-BigInt
    /// reference evaluator. Shifted operands force the BigInt escape and
    /// demotion paths to be exercised, not just the small path.
    #[test]
    fn rational_fast_path_matches_bigint_reference(
        seed_n in -1000i64..1000, seed_d in 1i64..100,
        ops in proptest::collection::vec(
            (0u8..4, -10_000i64..10_000, 1i64..1000, 0u32..140), 1..24),
    ) {
        let mut fast = Rational::ratio(seed_n, seed_d);
        let mut reference = RefRat::new(BigInt::from_i64(seed_n), BigInt::from_i64(seed_d));
        for (op, on, od, shift) in ops {
            // Operand (on << shift) / od: shifts ≥ ~64 leave i128 range.
            let shifted = shift_i64(on, shift);
            let operand_fast =
                Rational::new(shifted.clone(), BigInt::from_i64(od));
            let operand_ref = RefRat::new(shifted, BigInt::from_i64(od));
            match op {
                0 => {
                    fast += operand_fast;
                    reference = reference.add(&operand_ref);
                }
                1 => {
                    fast -= operand_fast;
                    reference = reference.sub(&operand_ref);
                }
                2 => {
                    fast *= operand_fast;
                    reference = reference.mul(&operand_ref);
                }
                _ => {
                    if operand_fast.is_zero() {
                        continue;
                    }
                    fast /= operand_fast;
                    reference = reference.div(&operand_ref);
                }
            }
            prop_assert_eq!(fast.numer(), reference.num.clone(), "numerator diverged");
            prop_assert_eq!(fast.denom(), reference.den.clone(), "denominator diverged");
        }
        // Comparison agrees with the reference cross-multiplication.
        let half = Rational::ratio(1, 2);
        let ref_half = RefRat::new(BigInt::from_i64(1), BigInt::from_i64(2));
        prop_assert_eq!(fast.cmp(&half), reference.cmp(&ref_half));
    }

    #[test]
    fn rational_order_antisymmetric(
        an in -100i64..100, ad in 1i64..50,
        bn in -100i64..100, bd in 1i64..50,
    ) {
        let a = Rational::ratio(an, ad);
        let b = Rational::ratio(bn, bd);
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // consistency with f64 when comparison is strict and far apart
        if (a.to_f64() - b.to_f64()).abs() > 1e-9 {
            prop_assert_eq!(a > b, a.to_f64() > b.to_f64());
        }
    }

    /// Integer operands (`den = 1`) take the gcd-free add/mul paths, on
    /// one side or both; magnitudes reach past `i64` so the `i128`
    /// overflow escape is exercised too.
    #[test]
    fn rational_integer_fast_paths_match_reference(
        a in -(1i128 << 100)..(1i128 << 100), c in -(1i128 << 100)..(1i128 << 100),
        an in -10_000i64..10_000, ad in 2i64..1000, small in -1000i64..1000,
    ) {
        let (x, y) = (Rational::from_i128(a), Rational::from_i128(c));
        check_against_reference(&x, &y)?;
        let frac = Rational::ratio(an, ad);
        check_against_reference(&x, &frac)?;
        check_against_reference(&frac, &y)?;
        let s = Rational::from_int(small);
        check_against_reference(&s, &frac)?;
        check_against_reference(&frac, &s)?;
        check_against_reference(&s, &Rational::from_int(an))?;
    }

    /// Equal denominators skip the gcd of the denominators; the sum's
    /// common factor with the denominator must still be divided out.
    #[test]
    fn rational_equal_denominators_match_reference(
        an in -100_000i64..100_000, cn in -100_000i64..100_000,
        d in 2i64..10_000, scale in 0u32..60,
    ) {
        let x = Rational::ratio(an, d);
        let y = Rational::ratio(cn, d);
        check_against_reference(&x, &y)?;
        // The same shape with denominators far past i64.
        let big_d = (d as i128) << scale;
        let xb = Rational::new(BigInt::from_i64(an), BigInt::from_i128(big_d));
        let yb = Rational::new(BigInt::from_i64(cn), BigInt::from_i128(big_d));
        check_against_reference(&xb, &yb)?;
        check_against_reference(&xb, &xb)?;
    }

    /// Magnitudes in [2^62, 2^64] straddle `i64::MAX`, so numerators,
    /// denominators and gcds land on both sides of the hardware-division
    /// dispatch; a shared factor `k` forces a nontrivial gcd.
    #[test]
    fn rational_i64_boundary_matches_reference(
        m1 in (1u64 << 62)..=u64::MAX, m2 in (1u64 << 62)..=u64::MAX,
        d1 in 1u64..=u64::MAX, d2 in (1u64 << 62)..=u64::MAX,
        k in 1u64..64, neg1: bool, neg2: bool,
    ) {
        let x = q128(neg1, m1, d1);
        let y = q128(neg2, m2, d2);
        check_against_reference(&x, &y)?;
        // Common factor k on both sides of each operand.
        let xk = Rational::new(x.numer().mul_ref(&BigInt::from_i64(k as i64)),
                               x.denom().mul_ref(&BigInt::from_i64(k as i64)));
        prop_assert_eq!(&xk, &x);
        let y_small = q128(neg2, m2 / k, k);
        check_against_reference(&x, &y_small)?;
        check_against_reference(&y_small, &Rational::from_int(k as i64))?;
    }

    /// `gcd_u128` agrees with `gcd_u64` below 2^64 and with the BigUint
    /// gcd above it, on operands straddling the 2^64 dispatch boundary.
    #[test]
    fn gcd_u128_matches_gcd_u64_across_the_boundary(
        a in (1u128 << 60)..(1u128 << 68), b in (1u128 << 60)..(1u128 << 68),
        k in 1u128..(1u128 << 8), low: u64,
    ) {
        let g = gcd_u128(a, b);
        if let (Ok(a64), Ok(b64)) = (u64::try_from(a), u64::try_from(b)) {
            prop_assert_eq!(g, gcd_u64(a64, b64) as u128);
        }
        let reference = BigUint::from_u128(a).gcd(&BigUint::from_u128(b)).to_u128();
        prop_assert_eq!(Some(g), reference);
        // A shared factor pushes the operands across 2^64 and scales the gcd.
        prop_assert_eq!(gcd_u128(a * k, b * k), g * k);
        prop_assert_eq!(gcd_u128(low as u128, 0), low as u128);
        // gcd(low, 2^64) is low's power-of-two part (2^64 itself for 0).
        prop_assert_eq!(gcd_u128(low as u128, 1u128 << 64), 1u128 << (low as u128).trailing_zeros().min(64));
    }
}
