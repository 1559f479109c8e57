//! Number writers for the JSON encoder: integers, and `f32` in the exact
//! text Rust's `Display` gives, computed with Ryū.
//!
//! `Display` for `f32` prints the shortest decimal that parses back to the
//! same bits, laid out without an exponent. The daemon writes thousands of
//! probabilities per reply, and `Display` spends about 100 ns on each;
//! [`put_f32`] finds the same digits with Ryū (Adams, *Ryū: fast
//! float-to-string conversion*, PLDI 2018) and lays them out the same way:
//!
//! - no exponent: `1e-7` is `0.0000001` and `f32::MAX` has 39 digits;
//! - no fraction on integral values: `1.0` is `1`;
//! - a sign on negative zero: `-0.0` is `-0`;
//! - `NaN`, `inf` and `-inf` as `Display` spells them (the JSON layer
//!   writes `null` for those before getting here).
//!
//! The writers fill byte buffers: [`write_array`] formats a whole array
//! through one stack block, so a reply pays the UTF-8 check and the copy
//! into its `String` once per block instead of once per number.
//!
//! Ryū's power-of-5 tables are computed at compile time by `const fn`s over
//! `u128`, not pasted in. The tests prove the writer byte-equal to
//! `Display` on a seeded sample of bit patterns; two `#[ignore]`d sweeps
//! cover the probability range [0, 1] and all 2³² patterns.

/// Bits in a scaled `5^i` entry of [`POW5_SPLIT`].
const POW5_BITCOUNT: i32 = 61;
/// Bits in a scaled `5^-i` entry of [`POW5_INV_SPLIT`], less `pow5bits(i)`.
const POW5_INV_BITCOUNT: i32 = 59;

/// `5^i` scaled to [`POW5_BITCOUNT`] bits, truncated. Index `i + 1` of the
/// largest `i` that [`shortest`] reaches (46, for subnormals) is in range.
const POW5_SPLIT: [u64; 48] = pow5_split();
/// `⌊2^k / 5^i⌋ + 1` with `k = pow5bits(i) - 1 + POW5_INV_BITCOUNT`; `i` is
/// at most `log10Pow2(102) = 30`, 102 being the largest binary exponent.
const POW5_INV_SPLIT: [u64; 31] = pow5_inv_split();

const fn pow5_split() -> [u64; 48] {
    let mut table = [0u64; 48];
    let mut pow5: u128 = 1;
    let mut i = 0;
    while i < table.len() {
        let bits = pow5bits(i as i32);
        table[i] = if bits > POW5_BITCOUNT {
            (pow5 >> (bits - POW5_BITCOUNT)) as u64
        } else {
            (pow5 << (POW5_BITCOUNT - bits)) as u64
        };
        pow5 *= 5;
        i += 1;
    }
    table
}

const fn pow5_inv_split() -> [u64; 31] {
    let mut table = [0u64; 31];
    let mut pow5: u128 = 1;
    let mut i = 0;
    while i < table.len() {
        let k = pow5bits(i as i32) - 1 + POW5_INV_BITCOUNT;
        // k reaches 128 at i = 30. No 5^i with i ≥ 1 divides 2^128, so
        // ⌊(2^128 - 1) / 5^i⌋ = ⌊2^128 / 5^i⌋ there.
        let quotient = if k < 128 {
            (1u128 << k) / pow5
        } else {
            u128::MAX / pow5
        };
        table[i] = quotient as u64 + 1;
        pow5 *= 5;
        i += 1;
    }
    table
}

/// `⌈log2(5^e)⌉`, and 1 for `e = 0` (exact for `0 ≤ e ≤ 3528`).
const fn pow5bits(e: i32) -> i32 {
    (((e as u32) * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10(2^e)⌋` (exact for `0 ≤ e ≤ 1650`).
fn log10_pow2(e: i32) -> u32 {
    ((e as u32) * 78_913) >> 18
}

/// `⌊log10(5^e)⌋` (exact for `0 ≤ e ≤ 2620`).
fn log10_pow5(e: i32) -> u32 {
    ((e as u32) * 732_923) >> 20
}

fn pow5_factor(mut value: u32) -> u32 {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count
}

fn multiple_of_pow5(value: u32, p: u32) -> bool {
    pow5_factor(value) >= p
}

/// `⌊m · factor / 2^shift⌋`; the quotient fits 32 bits for every call Ryū
/// makes.
fn mul_shift(m: u32, factor: u64, shift: i32) -> u32 {
    ((u128::from(m) * u128::from(factor)) >> shift) as u32
}

/// The shortest decimal `digits · 10^exponent` that rounds back to the
/// finite, nonzero `f32` with these IEEE fields, closest to it among the
/// shortest (Ryū's `f2d`).
fn shortest(ieee_mantissa: u32, ieee_exponent: u32) -> (u32, i32) {
    // Two extra bits below the mantissa hold the interval's bounds.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - 127 - 23 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - 127 - 23 - 2,
            (1u32 << 23) | ieee_mantissa,
        )
    };
    // Round-half-even parsing maps an even mantissa's bounds back to it.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    let mp = 4 * m2 + 2;
    // A power of two has its lower neighbour half as far away, except at
    // the smallest exponent, where the spacing does not change.
    let mm_shift = u32::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let mm = 4 * m2 - 1 - mm_shift;

    let (mut vr, mut vp, mut vm);
    let e10;
    let mut vm_is_trailing_zeros = false;
    let mut last_removed_digit = 0u8;
    if e2 >= 0 {
        let q = log10_pow2(e2);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let i = -e2 + q as i32 + k;
        let factor = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, factor, i);
        vp = mul_shift(mp, factor, i);
        vm = mul_shift(mm, factor, i);
        if q != 0 && (vp - 1) / 10 <= vm / 10 {
            // One removed digit is needed even when the loops below do not
            // run.
            let l = POW5_INV_BITCOUNT + pow5bits(q as i32 - 1) - 1;
            last_removed_digit =
                (mul_shift(mv, POW5_INV_SPLIT[q as usize - 1], -e2 + q as i32 - 1 + l) % 10) as u8;
        }
        // At most one of mp, mv and mm is a multiple of 5.
        if q <= 9 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_pow5(mm, q);
            } else {
                vp -= u32::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let factor = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, factor, j);
        vp = mul_shift(mp, factor, j);
        vm = mul_shift(mm, factor, j);
        if q != 0 && (vp - 1) / 10 <= vm / 10 {
            let j = q as i32 - 1 - (pow5bits(i + 1) - POW5_BITCOUNT);
            last_removed_digit = (mul_shift(mv, POW5_SPLIT[i as usize + 1], j) % 10) as u8;
        }
        if q <= 1 {
            // mm = mv - 1 - mm_shift has a trailing zero bit exactly when
            // mm_shift is 1; mp = mv + 2 always has one.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    let mut removed = 0;
    // Both shortest candidates can be equally close (2447398.25 lies
    // midway between 2447398.2 and 2447398.3). `Display` rounds such a tie
    // up, where Ryū's reference rounds it to even, so `last_removed_digit
    // >= 5` decides alone and Ryū's exact-value tracking is left out.
    let output = if vm_is_trailing_zeros {
        // The rare general case: the lower bound is exact and may be the
        // answer.
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm.is_multiple_of(10);
            last_removed_digit = (vr % 10) as u8;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed_digit = (vr % 10) as u8;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        vr + u32::from(
            (vr == vm && (!accept_bounds || !vm_is_trailing_zeros)) || last_removed_digit >= 5,
        )
    } else {
        while vp / 10 > vm / 10 {
            last_removed_digit = (vr % 10) as u8;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u32::from(vr == vm || last_removed_digit >= 5)
    };
    (output, e10 + removed)
}

/// `"00" "01" … "99"`: two digits per table lookup.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// The longest text [`put_i64`] writes: a sign and 19 digits.
pub(super) const I64_MAX_LEN: usize = 20;
/// The longest text [`put_f32`] writes: the smallest subnormal, negated,
/// is a sign, `0.`, 44 zeros and one digit.
pub(super) const F32_MAX_LEN: usize = 48;

/// Writes the decimal digits of `v` so that they end just before
/// `buf[end]`.
fn put_digits(buf: &mut [u8], end: usize, mut v: u64) {
    let mut start = end;
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        buf[start - 2..start].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        buf[start - 1] = b'0' + v as u8;
    }
}

/// `10^1 … 10^19`, every power of ten above 1 that fits a `u64`.
const POW10: [u64; 19] = pow10();

const fn pow10() -> [u64; 19] {
    let mut table = [10u64; 19];
    let mut i = 1;
    while i < table.len() {
        table[i] = table[i - 1] * 10;
        i += 1;
    }
    table
}

fn decimal_len(v: u64) -> usize {
    1 + POW10.iter().take_while(|&&p| v >= p).count()
}

/// Writes `value` as its `Display` does into `buf` from `at`, and returns
/// where the text ends; `buf` needs [`I64_MAX_LEN`] bytes from `at`.
pub(super) fn put_i64(buf: &mut [u8], mut at: usize, value: i64) -> usize {
    if value < 0 {
        buf[at] = b'-';
        at += 1;
    }
    let magnitude = value.unsigned_abs();
    let end = at + decimal_len(magnitude);
    put_digits(buf, end, magnitude);
    end
}

/// Writes `value` as its `Display` does (see the module docs) into `buf`
/// from `at`, and returns where the text ends; `buf` needs
/// [`F32_MAX_LEN`] bytes from `at`.
pub(super) fn put_f32(buf: &mut [u8], mut at: usize, value: f32) -> usize {
    let bits = value.to_bits();
    let ieee_exponent = (bits >> 23) & 0xff;
    let ieee_mantissa = bits & ((1 << 23) - 1);
    if ieee_exponent == 0xff {
        let text: &[u8] = match (ieee_mantissa != 0, value > 0.0) {
            (true, _) => b"NaN",
            (false, true) => b"inf",
            (false, false) => b"-inf",
        };
        buf[at..at + text.len()].copy_from_slice(text);
        return at + text.len();
    }
    if bits >> 31 != 0 {
        buf[at] = b'-';
        at += 1;
    }
    // An integral value below 2^24 is its own shortest decimal: its
    // neighbours are at most 1 apart, so no other integer rounds to it.
    // Zero and one, the commonest probabilities, take this path.
    let magnitude = value.abs();
    if magnitude < 16_777_216.0 && magnitude.trunc() == magnitude {
        let v = magnitude as u64;
        let end = at + decimal_len(v);
        put_digits(buf, end, v);
        return end;
    }
    let (mut digits, mut exponent) = shortest(ieee_mantissa, ieee_exponent);
    while digits.is_multiple_of(10) {
        digits /= 10;
        exponent += 1;
    }
    let n_digits = decimal_len(u64::from(digits));
    // Digits left of the decimal point (≤ 0: the value is below 0.1).
    let point = exponent + n_digits as i32;
    if point <= 0 {
        // "0.", then -point zeros, then the digits.
        let zeros = point.unsigned_abs() as usize;
        buf[at..at + 2].copy_from_slice(b"0.");
        buf[at + 2..at + 2 + zeros].fill(b'0');
        let end = at + 2 + zeros + n_digits;
        put_digits(buf, end, u64::from(digits));
        end
    } else if (point as usize) < n_digits {
        // The point falls inside the digits: shift the fraction right.
        let point = at + point as usize;
        let end = at + n_digits + 1;
        put_digits(buf, end - 1, u64::from(digits));
        buf.copy_within(point..end - 1, point + 1);
        buf[point] = b'.';
        end
    } else {
        // An integer of 2^24 or more: the digits, then the zeros.
        put_digits(buf, at + n_digits, u64::from(digits));
        let end = at + point as usize;
        buf[at + n_digits..end].fill(b'0');
        end
    }
}

/// Appends ASCII text (every caller writes digits, signs, dots, commas,
/// brackets or the letters of `null`, `NaN` and `inf`).
pub(super) fn push_ascii(out: &mut String, bytes: &[u8]) {
    if let Ok(text) = std::str::from_utf8(bytes) {
        out.push_str(text);
    }
}

/// Appends `value` exactly as its `Display` writes it.
pub(super) fn write_i64(out: &mut String, value: i64) {
    let mut buf = [0u8; I64_MAX_LEN];
    let end = put_i64(&mut buf, 0, value);
    push_ascii(out, &buf[..end]);
}

/// Appends `values` as a JSON array, each element written by `put` in at
/// most `max_len` bytes. The elements collect in a stack block that goes
/// to `out` whenever the next one might not fit: one UTF-8 check and one
/// copy per block, not per number.
pub(super) fn write_array<T>(
    out: &mut String,
    values: impl IntoIterator<Item = T>,
    max_len: usize,
    mut put: impl FnMut(&mut [u8], usize, T) -> usize,
) {
    let mut block = [0u8; 1024];
    block[0] = b'[';
    let mut len = 1;
    for (i, value) in values.into_iter().enumerate() {
        // A comma, the element and the closing bracket must fit.
        if len + max_len + 2 > block.len() {
            push_ascii(out, &block[..len]);
            len = 0;
        }
        if i > 0 {
            block[len] = b',';
            len += 1;
        }
        len = put(&mut block, len, value);
    }
    block[len] = b']';
    push_ascii(out, &block[..=len]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    fn write_f32(out: &mut String, value: f32) {
        let mut buf = [0u8; F32_MAX_LEN];
        let end = put_f32(&mut buf, 0, value);
        push_ascii(out, &buf[..end]);
    }

    fn via_writer(value: f32) -> String {
        let mut out = String::new();
        write_f32(&mut out, value);
        out
    }

    fn assert_display(value: f32) {
        assert_eq!(
            via_writer(value),
            value.to_string(),
            "bits {:#010x}",
            value.to_bits()
        );
    }

    /// splitmix64: a seeded stream of bit patterns, no `rand` needed.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Compares the writer with `Display` on every bit pattern in `range`,
    /// split over at most `available_parallelism()` scoped threads, and
    /// fails with the number of mismatches and the first few.
    fn sweep(range: std::ops::RangeInclusive<u32>) {
        let (lo, hi) = (u64::from(*range.start()), u64::from(*range.end()));
        let lanes = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let chunk = (hi - lo + 1).div_ceil(lanes);
        let found: Vec<(u64, Vec<String>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..lanes)
                .map(|lane| {
                    scope.spawn(move || {
                        let start = lo + lane * chunk;
                        let end = (start + chunk).min(hi + 1);
                        let (mut ours, mut theirs) = (String::new(), String::new());
                        let (mut mismatches, mut first) = (0u64, Vec::new());
                        for bits in start..end {
                            let value = f32::from_bits(bits as u32);
                            ours.clear();
                            theirs.clear();
                            write_f32(&mut ours, value);
                            write!(theirs, "{value}").expect("writing to a String");
                            if ours != theirs {
                                mismatches += 1;
                                if first.len() < 8 {
                                    first.push(format!("{bits:#010x}: {ours} vs {theirs}"));
                                }
                            }
                        }
                        (mismatches, first)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a sweep lane panicked"))
                .collect()
        });
        let mismatches: u64 = found.iter().map(|(n, _)| n).sum();
        let first: Vec<&String> = found.iter().flat_map(|(_, f)| f).collect();
        assert_eq!(mismatches, 0, "first mismatches: {first:?}");
    }

    #[test]
    fn f32_writer_matches_display_on_edge_values() {
        let mut values = vec![
            0.0,
            -0.0,
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            f32::EPSILON,
            1.0,
            -1.0,
            f32::from_bits(1.0f32.to_bits() + 1),
            f32::from_bits(1.0f32.to_bits() - 1),
            0.1,
            0.2,
            0.3,
            1.0 / 3.0,
            2.0 / 3.0,
            0.5,
            1e-7,
            123_456_790.0,
            16_777_216.0,
            16_777_217.0,
            0.999_999_94,
            1.000_000_1,
            1_234.567_7,
            0.123_456_79,
            9.876_543e-5,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        // Every power of ten f32 can approach, and its neighbours.
        for e in -45..=38 {
            let p = format!("1e{e}").parse::<f32>().expect("a decimal literal");
            values.extend([p, f32::from_bits(p.to_bits() + 1)]);
            if p.to_bits() > 0 {
                values.push(f32::from_bits(p.to_bits() - 1));
            }
        }
        // Every power of two, where the rounding interval is lopsided.
        for e in 0..255u32 {
            values.push(f32::from_bits(e << 23));
        }
        // Values that need all nine significant digits f32 can ask for,
        // taken from the neighbours of a few decimal anchors.
        let significant = |text: &str| {
            let digits: String = text.chars().filter(char::is_ascii_digit).collect();
            digits.trim_start_matches('0').trim_end_matches('0').len()
        };
        let nine: Vec<f32> = [0.1f32, 3.0, 7.0e5, 2.5e-20]
            .iter()
            .flat_map(|anchor| (0..256).map(move |k| f32::from_bits(anchor.to_bits() + k)))
            .filter(|v| significant(&v.to_string()) == 9)
            .collect();
        assert!(nine.len() >= 16, "only {} nine-digit values", nine.len());
        values.extend(nine);
        for value in values {
            assert_display(value);
            assert_display(-value);
        }
        assert_eq!(via_writer(1e-7), "0.0000001");
        assert_eq!(via_writer(1.0), "1");
        assert_eq!(via_writer(-0.0), "-0");
        assert_eq!(via_writer(f32::MAX).len(), 39);
    }

    #[test]
    fn f32_writer_matches_display_on_seeded_bit_patterns() {
        let mut state = 0x5EED_0017;
        let (mut ours, mut theirs) = (String::new(), String::new());
        for _ in 0..100_000 {
            let value = f32::from_bits(splitmix(&mut state) as u32);
            ours.clear();
            theirs.clear();
            write_f32(&mut ours, value);
            write!(theirs, "{value}").expect("writing to a String");
            assert_eq!(ours, theirs, "bits {:#010x}", value.to_bits());
        }
    }

    /// Every bit pattern a probability can take: [0, 1], about 1.07 × 10⁹
    /// values. Run it optimized:
    /// `cargo test --release -p pandora-hdbscan --lib -- --ignored f32_writer_matches_display_on_the_unit_interval`.
    #[test]
    #[ignore = "exhaustive; run in release mode"]
    fn f32_writer_matches_display_on_the_unit_interval() {
        sweep(0..=1.0f32.to_bits());
    }

    /// All 2³² bit patterns (perfbench's `load` lines write arbitrary
    /// coordinates through the same writer). Run it optimized, as above.
    #[test]
    #[ignore = "exhaustive; run in release mode"]
    fn f32_writer_matches_display_on_every_bit_pattern() {
        sweep(0..=u32::MAX);
    }

    #[test]
    fn i64_writer_matches_display() {
        let mut out = String::new();
        let mut check = |value: i64| {
            out.clear();
            write_i64(&mut out, value);
            assert_eq!(out, value.to_string());
        };
        for value in [i64::MIN, i64::MIN + 1, i64::MAX, 0, -1, 9, 10, 99, 100] {
            check(value);
        }
        for value in -1..=100_000 {
            check(value);
        }
        let mut state = 0x5EED_0064;
        for _ in 0..100_000 {
            let bits = splitmix(&mut state);
            // Every magnitude, not just the 19-digit ones most draws give.
            check((bits as i64) >> (bits % 64));
        }
    }
}
