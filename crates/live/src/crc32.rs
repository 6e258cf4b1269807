//! CRC-32 (IEEE 802.3 polynomial, reflected): the checksum of every WAL
//! record, segment header and snapshot image.
//!
//! Two paths, one result. The portable one is slice-by-8 over eight
//! lookup tables. On an x86-64 CPU that reports PCLMULQDQ (checked at run
//! time), inputs of at least [`FOLD_MIN`] bytes go through a carry-less
//! multiply folding kernel instead (Gopal et al., "Fast CRC Computation
//! for Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009):
//! four 128-bit lanes fold 64 bytes a step, fold into one lane, and a
//! Barrett reduction ends at the 32-bit register; the tables finish the
//! tail of fewer than 16 bytes. The checksums are bit-identical
//! (`tests::hardware_path_matches_the_tables_at_every_length_and_offset`).

#![expect(
    unsafe_code,
    reason = "the PCLMULQDQ kernel: SIMD intrinsics called after a run-time feature check"
)]

/// Eight derived lookup tables for slice-by-8: `TABLES[0]` is the classic
/// byte-at-a-time table; `TABLES[j]` advances a byte `j` further positions
/// in one lookup. Same polynomial, same checksums as the byte-wise form —
/// only the number of table lookups per byte changes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// The shortest input the folding kernel takes: its four lanes start
/// loaded with 64 bytes.
const FOLD_MIN: usize = 64;

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `bytes`; `crc32(b"")`
/// is 0. The folding kernel takes it where the CPU has it and the input
/// is long enough, the tables otherwise and for the kernel's tail.
/// Inlined, so a record's fixed length picks its path and unrolls the
/// table loop at compile time.
#[must_use]
#[inline]
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= FOLD_MIN && std::arch::is_x86_feature_detected!("pclmulqdq") {
        let (body, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: `is_x86_feature_detected!("pclmulqdq")` just reported
        // the instruction on this CPU, the one feature `fold` enables.
        let crc = unsafe { clmul::fold(!0, body) };
        return !tables(crc, tail);
    }
    !tables(!0, bytes)
}

/// The portable path: advances the CRC register `c` (not yet inverted)
/// over `bytes` by slice-by-8, eight bytes per iteration, eight
/// independent table lookups the CPU can overlap.
#[inline]
fn tables(mut c: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    // A remainder of four or more takes one slice-by-4 step: a 50-byte
    // record's 46 checksummed bytes end in six.
    let mut rest = chunks.remainder();
    if let [a, b, d, e, tail @ ..] = rest {
        let x = c ^ u32::from_le_bytes([*a, *b, *d, *e]);
        c = CRC_TABLES[3][(x & 0xFF) as usize]
            ^ CRC_TABLES[2][((x >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((x >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(x >> 24) as usize];
        rest = tail;
    }
    for &b in rest {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    // Folding constants of the reflected polynomial, each `(x^n mod P)`
    // bit-reflected and shifted left by one (the paper's appendix):
    // K1/K2 fold a lane 512 bits on, K3/K4 fold 128 bits on, K5 folds the
    // last 64 bits; `P` is the polynomial P' and `MU` the Barrett
    // constant μ', both bit-reflected.
    const K1: i64 = 0x0001_5444_2bd4;
    const K2: i64 = 0x0001_c6e4_1596;
    const K3: i64 = 0x0001_7519_97d0;
    const K4: i64 = 0x0000_ccaa_009e;
    const K5: i64 = 0x0001_63cd_6124;
    const P: i64 = 0x0001_db71_0641;
    const MU: i64 = 0x0001_f701_1641;

    fn load(bytes: &[u8]) -> __m128i {
        debug_assert!(bytes.len() >= 16);
        // SAFETY: every caller passes at least 16 readable bytes (a
        // `chunks_exact(16)` item or a slice of a 64-byte one), and
        // `loadu` has no alignment requirement; it is SSE2, which the
        // x86-64 baseline has, so no feature check is needed for it.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    /// `x` folded 128 bits on by `k` (low half × K_low, high × K_high),
    /// plus `next`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(hi, lo), next)
    }

    /// Advances the CRC register `crc` over `bytes`, whose length is a
    /// multiple of 16 and at least [`super::FOLD_MIN`].
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn fold(crc: u32, bytes: &[u8]) -> u32 {
        debug_assert!(bytes.len() >= super::FOLD_MIN && bytes.len().is_multiple_of(16));
        let (head, rest) = bytes.split_at(super::FOLD_MIN);
        let mut x1 = _mm_xor_si128(load(head), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = load(&head[16..]);
        let mut x3 = load(&head[32..]);
        let mut x4 = load(&head[48..]);

        // Four lanes, 64 bytes a step.
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut blocks = rest.chunks_exact(64);
        for b in &mut blocks {
            x1 = fold_into(x1, k1k2, load(b));
            x2 = fold_into(x2, k1k2, load(&b[16..]));
            x3 = fold_into(x3, k1k2, load(&b[32..]));
            x4 = fold_into(x4, k1k2, load(&b[48..]));
        }

        // Into one lane, then 16 bytes a step.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(x1, k3k4, x2);
        x = fold_into(x, k3k4, x3);
        x = fold_into(x, k3k4, x4);
        for b in blocks.remainder().chunks_exact(16) {
            x = fold_into(x, k3k4, load(b));
        }

        // 128 bits to 64.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        x = _mm_xor_si128(
            _mm_srli_si128::<8>(x),
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
        );
        let k5 = _mm_set_epi64x(0, K5);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5),
            _mm_srli_si128::<4>(x),
        );

        // Barrett reduction to 32.
        let poly = _mm_set_epi64x(MU, P);
        let mut t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly);
        t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), poly);
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t))) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `crc32` of `len` bytes runs the kernel on this CPU.
    fn on_kernel(len: usize) -> bool {
        #[cfg(target_arch = "x86_64")]
        if len >= FOLD_MIN && std::arch::is_x86_feature_detected!("pclmulqdq") {
            return true;
        }
        false
    }

    fn portable(bytes: &[u8]) -> u32 {
        !tables(!0, bytes)
    }

    #[test]
    fn both_paths_give_the_check_value() {
        // The standard IEEE check value for "123456789".
        assert_eq!(portable(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Long enough for the kernel: the check string eight times over,
        // against the byte-wise loop.
        let long = b"123456789".repeat(8);
        let mut c = !0u32;
        for &b in &long {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        assert_eq!(portable(&long), !c);
        assert_eq!(crc32(&long), !c);
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_loop() {
        // Lengths straddling the 8-byte chunk boundary, including 46
        // (record body) and 28 (header body).
        let data: Vec<u8> = (0u16..512)
            .map(|i| (i.wrapping_mul(167) >> 3) as u8)
            .collect();
        for len in [0, 1, 7, 8, 9, 15, 16, 28, 46, 63, 64, 255, 512] {
            let bytes = &data[..len];
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
            }
            assert_eq!(portable(bytes), c ^ 0xFFFF_FFFF, "len {len}");
        }
    }

    #[test]
    fn hardware_path_matches_the_tables_at_every_length_and_offset() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4096 + 16)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let mut kernel_runs = 0;
        for offset in 0..16 {
            // The tables' register, advanced a byte per length: what the
            // portable path gives for every prefix, without rereading it.
            let mut register = !0u32;
            for len in 0..=4096 {
                let bytes = &data[offset..offset + len];
                if let Some(&last) = bytes.last() {
                    register = tables(register, &[last]);
                }
                if len % 61 == 0 || len < 128 {
                    assert_eq!(portable(bytes), !register, "offset {offset}, len {len}");
                }
                assert_eq!(crc32(bytes), !register, "offset {offset}, len {len}");
                kernel_runs += usize::from(on_kernel(len));
            }
        }
        if kernel_runs == 0 {
            eprintln!("this CPU has no PCLMULQDQ: only the portable path ran");
        }
    }
}
