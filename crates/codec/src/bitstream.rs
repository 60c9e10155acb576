//! Bit-level I/O with exponential-Golomb entropy codes.
//!
//! The codec's entropy layer uses unsigned (`ue`) and signed (`se`)
//! exp-Golomb codes, the same family HEVC uses for header syntax. They are
//! simple, prefix-free, and favour small magnitudes, which matches the
//! residual statistics of quantized DCT coefficients.

/// Error raised when a bitstream ends prematurely or contains an invalid code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitstreamError {
    /// The reader ran past the end of the buffer.
    UnexpectedEof,
    /// An exp-Golomb prefix was longer than any value we ever encode.
    CodeTooLong,
}

impl std::fmt::Display for BitstreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitstreamError::UnexpectedEof => write!(f, "bitstream ended unexpectedly"),
            BitstreamError::CodeTooLong => write!(f, "exp-Golomb code exceeds 32-bit range"),
        }
    }
}

impl std::error::Error for BitstreamError {}

/// Writes bits MSB-first into a growable byte buffer, a 32-bit word at a
/// time.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits accumulated but not yet flushed to `buf` (kept in the high bits).
    acc: u64,
    /// Number of valid bits in `acc`: fewer than 32 between writes.
    nbits: u32,
}

/// The exp-Golomb code of `v` as `(code, length)`: `code` is `v + 1`, and
/// the zeros ahead of it are the rest of the length (up to 63 bits).
const fn ue_code(v: u32) -> (u32, u32) {
    let code = v + 1;
    (code, 2 * (32 - code.leading_zeros()) - 1)
}

/// The `ue` value a signed exp-Golomb code carries `v` as: 0, 1, -1, 2, -2,
/// … are 0, 1, 2, 3, 4, …
const fn se_to_ue(v: i32) -> u32 {
    if v <= 0 {
        (-(v as i64) * 2) as u32
    } else {
        (v as u32) * 2 - 1
    }
}

/// Runs below `PAIR_RUNS` with levels in `-PAIR_LEVELS..PAIR_LEVELS` are
/// written from [`PAIR_CODES`]; like the reader's [`PAIRS`], that is all but
/// a few in a thousand of a DCT tile's pairs, in 4 KiB.
const PAIR_RUNS: u32 = 16;
const PAIR_LEVELS: i32 = 16;
const PAIR_COLUMNS: u32 = 2 * PAIR_LEVELS as u32;

/// For each such `(run, level)`, at `run * PAIR_COLUMNS + level +
/// PAIR_LEVELS`: the `ue` code with the `se` code behind it, and the bits
/// the two take together (20 at most).
static PAIR_CODES: [(u32, u8); (PAIR_RUNS * PAIR_COLUMNS) as usize] = {
    let mut table = [(0, 0); (PAIR_RUNS * PAIR_COLUMNS) as usize];
    let mut index = 0;
    while index < PAIR_RUNS * PAIR_COLUMNS {
        let (run, run_len) = ue_code(index / PAIR_COLUMNS);
        let level = (index % PAIR_COLUMNS) as i32 - PAIR_LEVELS;
        let (level, level_len) = ue_code(se_to_ue(level));
        table[index as usize] = (run << level_len | level, (run_len + level_len) as u8);
        index += 1;
    }
    table
};

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the low `n` bits of `value`, MSB first. `n` must be ≤ 32.
    #[inline]
    pub fn put_bits(&mut self, value: u32, n: u32) {
        debug_assert!(n <= 32);
        debug_assert!(
            n == 32 || value < (1u32 << n),
            "value does not fit in {n} bits"
        );
        // In two shifts, each of at most 32: together they are 64 when
        // nothing is written to an empty accumulator.
        self.acc |= ((value as u64) << (32 - n)) << (32 - self.nbits);
        self.nbits += n;
        if self.nbits >= 32 {
            self.buf
                .extend_from_slice(&((self.acc >> 32) as u32).to_be_bytes());
            self.acc <<= 32;
            self.nbits -= 32;
        }
    }

    /// Writes a single flag bit.
    #[inline]
    pub fn put_bit(&mut self, bit: bool) {
        self.put_bits(bit as u32, 1);
    }

    /// Writes an unsigned exp-Golomb code (`ue(v)`): `leading_zeros(v+1)`
    /// zero bits, then the binary of `v + 1`.
    #[inline]
    pub fn put_ue(&mut self, v: u32) {
        debug_assert!(v < u32::MAX, "ue(v) requires v + 1 to fit in u32");
        let (code, len) = ue_code(v);
        if len <= 32 {
            self.put_bits(code, len);
        } else {
            self.put_bits(0, len / 2);
            self.put_bits(code, len / 2 + 1);
        }
    }

    /// Writes a signed exp-Golomb code (`se(v)`), mapping
    /// 0, 1, -1, 2, -2, … to 0, 1, 2, 3, 4, …
    #[inline]
    pub fn put_se(&mut self, v: i32) {
        self.put_ue(se_to_ue(v));
    }

    /// Writes a coefficient's `ue` run and the `se` level behind it: in one
    /// write where [`PAIR_CODES`] holds the pair.
    #[inline]
    pub(crate) fn put_run_level(&mut self, run: u32, level: i32) {
        let column = level.wrapping_add(PAIR_LEVELS) as u32;
        if run < PAIR_RUNS && column < PAIR_COLUMNS {
            let (code, len) = PAIR_CODES[(run * PAIR_COLUMNS + column) as usize];
            self.put_bits(code, len as u32);
        } else {
            self.put_ue(run);
            self.put_se(level);
        }
    }

    /// Pads with zero bits to the next byte boundary and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let tail = self.nbits.div_ceil(8) as usize;
        self.buf.extend_from_slice(&self.acc.to_be_bytes()[..tail]);
        self.buf
    }

    /// Number of whole bytes the stream would occupy if finished now.
    pub fn byte_len(&self) -> usize {
        self.buf.len() + self.nbits.div_ceil(8) as usize
    }
}

/// Reads bits MSB-first from a byte slice.
///
/// The reader keeps the next bits of the stream left-aligned in a 64-bit
/// window that it refills eight bytes at a time, so an exp-Golomb code is a
/// `leading_zeros` and a shift instead of a loop over its bits, and a short
/// `ue` code with an `se` code behind it — a coefficient's run and level —
/// is one table lookup of the window's top bits
/// ([`BitReader::get_run_level`]). A code the window does not hold whole — a
/// very long one, or one cut off by the end of the stream — goes through
/// the bit-at-a-time loop, which alone decides
/// [`BitstreamError::UnexpectedEof`] and [`BitstreamError::CodeTooLong`].
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// The next `avail` unread bits, left-aligned; the bits below are zero.
    window: u64,
    /// Number of unread bits in `window`.
    avail: u32,
    /// Index of the first byte not yet loaded into `window`.
    next: usize,
}

/// The window is topped up whenever it holds fewer bits than this, so away
/// from the end of the stream any code of up to 32 bits is whole in it.
const REFILL_BELOW: u32 = 32;

/// Bits of the window that index [`PAIRS`]: 12 hold 99.9 % of the pairs in
/// DCT tiles of the benchmark's videos (10 hold 97.9 %) in a 12 KiB table.
const PAIR_BITS: u32 = 12;

/// For each `PAIR_BITS`-bit prefix, the `ue` run and `se` level it starts
/// with and the bits the two take together, as `(run, level, len)`; `len` is
/// 0 where the prefix does not hold a pair whole.
static PAIRS: [(u8, i8, u8); 1 << PAIR_BITS] = pair_table();

/// The exp-Golomb code at the top of the `width`-bit value `bits` as
/// `(code, length)`, or length 0 if the code is longer than `width`.
const fn ue_prefix(bits: u32, width: u32) -> (u32, u32) {
    // Zeros above the value's `width` bits do not count.
    let len = 2 * (bits.leading_zeros() + width - 32) + 1;
    if len > width {
        return (0, 0);
    }
    (bits >> (width - len), len)
}

const fn pair_table() -> [(u8, i8, u8); 1 << PAIR_BITS] {
    let mut table = [(0, 0, 0); 1 << PAIR_BITS];
    let mut index = 0u32;
    while index < 1 << PAIR_BITS {
        let (run, run_len) = ue_prefix(index, PAIR_BITS);
        let rest = PAIR_BITS - run_len;
        let (level, level_len) = ue_prefix(index & ((1 << rest) - 1), rest);
        if run_len > 0 && level_len > 0 {
            // At most `PAIR_BITS - 1` bits each, so both fit their fields.
            // As `get_se` maps them: codes 1, 2, 3, 4, … are 0, 1, -1, 2, …
            let sign = if level % 2 == 0 { 1 } else { -1 };
            let level = sign * (level / 2) as i8;
            table[index as usize] = ((run - 1) as u8, level, (run_len + level_len) as u8);
        }
        index += 1;
    }
    table
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            window: 0,
            avail: 0,
            next: 0,
        }
    }

    /// Remaining unread bits.
    pub fn remaining_bits(&self) -> usize {
        (self.data.len() - self.next) * 8 + self.avail as usize
    }

    /// Loads as many whole bytes as fit below the unread bits: at least 57
    /// bits are then available, or everything the stream has left.
    #[inline]
    fn refill(&mut self) {
        debug_assert!(self.avail <= 56);
        if let Some(chunk) = self.data.get(self.next..self.next + 8) {
            let bytes = (64 - self.avail) / 8;
            let chunk = u64::from_be_bytes(chunk.try_into().expect("eight bytes"));
            let fresh = chunk & (u64::MAX << (64 - 8 * bytes));
            self.window |= fresh >> self.avail;
            self.avail += 8 * bytes;
            self.next += bytes as usize;
        } else {
            while self.avail <= 56 && self.next < self.data.len() {
                self.window |= (self.data[self.next] as u64) << (56 - self.avail);
                self.avail += 8;
                self.next += 1;
            }
        }
    }

    /// Drops the top `n` bits of the window (`n` ≤ `avail`, `n` < 64).
    #[inline]
    fn consume(&mut self, n: u32) {
        self.window <<= n;
        self.avail -= n;
    }

    /// Reads `n` bits (≤ 32), MSB first.
    #[inline]
    pub fn get_bits(&mut self, n: u32) -> Result<u32, BitstreamError> {
        debug_assert!(n <= 32);
        if n == 0 {
            return Ok(0);
        }
        if self.avail < n {
            self.refill();
            if self.avail < n {
                return Err(BitstreamError::UnexpectedEof);
            }
        }
        let bits = (self.window >> (64 - n)) as u32;
        self.consume(n);
        Ok(bits)
    }

    /// Reads a single flag bit.
    #[inline]
    pub fn get_bit(&mut self) -> Result<bool, BitstreamError> {
        Ok(self.get_bits(1)? == 1)
    }

    /// Consumes up to `max` consecutive one bits and returns how many it
    /// took. Each is a complete `ue(0)` code, so a run of SKIP blocks costs
    /// one count-leading-ones per window rather than one
    /// [`BitReader::get_ue`] each.
    #[inline]
    pub(crate) fn take_ones(&mut self, max: usize) -> usize {
        let mut taken = 0;
        while taken < max {
            if self.avail == 0 {
                self.refill();
                if self.avail == 0 {
                    break;
                }
            }
            // The bits below the unread ones are zero, so the count never
            // runs past them.
            let ones = (!self.window).leading_zeros();
            let take = (ones as usize).min(max - taken) as u32;
            let run_goes_on = take == self.avail;
            // A full window of ones is 64 bits, one more than a shift takes.
            self.window = self.window.checked_shl(take).unwrap_or(0);
            self.avail -= take;
            taken += take as usize;
            if !run_goes_on {
                break;
            }
        }
        taken
    }

    /// Reads an unsigned exp-Golomb code.
    #[inline]
    pub fn get_ue(&mut self) -> Result<u32, BitstreamError> {
        if self.avail < REFILL_BELOW {
            self.refill();
        }
        // `zeros` zero bits, a one, then `zeros` more: if all of that is in
        // the window, its top `2 * zeros + 1` bits are the code `v + 1`.
        let zeros = self.window.leading_zeros();
        let len = 2 * zeros + 1;
        if len <= self.avail {
            let code = (self.window >> (64 - len)) as u32;
            self.consume(len);
            return Ok(code - 1);
        }
        self.get_ue_bitwise()
    }

    /// [`BitReader::get_ue`] one bit at a time: for codes longer than the
    /// window had bits, and whatever the end of the stream cuts short.
    fn get_ue_bitwise(&mut self) -> Result<u32, BitstreamError> {
        let mut zeros = 0u32;
        loop {
            if self.remaining_bits() == 0 {
                return Err(BitstreamError::UnexpectedEof);
            }
            if self.get_bits(1)? == 1 {
                break;
            }
            zeros += 1;
            if zeros > 31 {
                return Err(BitstreamError::CodeTooLong);
            }
        }
        let rest = self.get_bits(zeros)?;
        let code = (1u32 << zeros) | rest;
        Ok(code - 1)
    }

    /// Reads a signed exp-Golomb code.
    #[inline]
    pub fn get_se(&mut self) -> Result<i32, BitstreamError> {
        let mapped = self.get_ue()?;
        if mapped % 2 == 1 {
            Ok(mapped.div_ceil(2) as i32)
        } else {
            Ok(-((mapped / 2) as i32))
        }
    }

    /// Reads a `ue` run and the `se` level behind it in one table step, if
    /// the pair is short enough for the table and whole in the window.
    /// `None` consumes nothing: the caller reads the pair with
    /// [`BitReader::get_ue`] and [`BitReader::get_se`], which alone decide
    /// errors.
    #[inline]
    pub fn get_run_level(&mut self) -> Option<(u32, i32)> {
        if self.avail < REFILL_BELOW {
            self.refill();
        }
        let (run, level, len) = PAIRS[(self.window >> (64 - PAIR_BITS)) as usize];
        // Near the end of the stream a prefix may run into the zeros below
        // the unread bits.
        if len == 0 || len as u32 > self.avail {
            return None;
        }
        self.consume(len as u32);
        Some((run as u32, level as i32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip() {
        let mut w = BitWriter::new();
        w.put_bits(0b101, 3);
        w.put_bits(0xFFFF, 16);
        w.put_bit(false);
        w.put_bits(7, 5);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(3).unwrap(), 0b101);
        assert_eq!(r.get_bits(16).unwrap(), 0xFFFF);
        assert!(!r.get_bit().unwrap());
        assert_eq!(r.get_bits(5).unwrap(), 7);
    }

    #[test]
    fn ue_small_values() {
        // Classic exp-Golomb examples: 0 -> "1", 1 -> "010", 2 -> "011".
        let mut w = BitWriter::new();
        for v in 0..=10 {
            w.put_ue(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for v in 0..=10 {
            assert_eq!(r.get_ue().unwrap(), v);
        }
    }

    #[test]
    fn ue_bit_pattern() {
        let mut w = BitWriter::new();
        w.put_ue(0);
        let b = w.finish();
        assert_eq!(b[0], 0b1000_0000);
        let mut w = BitWriter::new();
        w.put_ue(1); // 010
        w.put_ue(2); // 011
        let b = w.finish();
        assert_eq!(b[0], 0b0100_1100);
    }

    #[test]
    fn se_roundtrip() {
        let values = [0, 1, -1, 2, -2, 17, -17, 255, -255, 4096, -4096];
        let mut w = BitWriter::new();
        for &v in &values {
            w.put_se(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.get_se().unwrap(), v);
        }
    }

    #[test]
    fn large_ue_values() {
        let values = [0, 1, 100, 1000, 65535, 1 << 20, u32::MAX - 1];
        let mut w = BitWriter::new();
        for &v in &values {
            w.put_ue(v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.get_ue().unwrap(), v);
        }
    }

    #[test]
    fn eof_detected() {
        let mut r = BitReader::new(&[0b0000_0000]);
        assert!(r.get_ue().is_err());
        let mut r = BitReader::new(&[]);
        assert_eq!(r.get_bits(1), Err(BitstreamError::UnexpectedEof));
    }

    fn two_walks(r: &mut BitReader<'_>) -> Result<(u32, i32), BitstreamError> {
        Ok((r.get_ue()?, r.get_se()?))
    }

    /// A table step is `get_ue` then `get_se` — same values, same bits
    /// consumed — or nothing at all: for every table index, with anything
    /// behind it, at every count of bits in the window, whether the stream
    /// ends with the window or goes on (by one byte, by a whole refill).
    #[test]
    fn run_level_step_is_two_walks_for_every_prefix_and_window_fill() {
        let behind: [&[u8]; 3] = [&[], &[0xa5], &[0, 0x5a, 0xff, 1, 0x80, 0, 0x7e, 0x33, 0xc4]];
        let mut steps = 0u32;
        for index in 0..1u64 << PAIR_BITS {
            for filler in [0, u64::MAX, 0x9e37_79b9_7f4a_7c15] {
                let bits = index << (64 - PAIR_BITS) | filler >> PAIR_BITS;
                for avail in 0..=64u32 {
                    let window = bits & u64::MAX.checked_shl(64 - avail).unwrap_or(0);
                    for data in behind {
                        let reader = || BitReader {
                            data,
                            window,
                            avail,
                            next: 0,
                        };
                        let (mut joint, mut walk) = (reader(), reader());
                        let walked = two_walks(&mut walk);
                        match joint.get_run_level() {
                            Some(pair) => {
                                steps += 1;
                                assert_eq!(Ok(pair), walked, "{index:#x} {avail}");
                            }
                            None => {
                                assert_eq!(joint.remaining_bits(), reader().remaining_bits());
                                assert_eq!(two_walks(&mut joint), walked, "{index:#x} {avail}");
                            }
                        }
                        if walked.is_ok() {
                            assert_eq!(joint.remaining_bits(), walk.remaining_bits());
                            assert_eq!(joint.get_bits(32), walk.get_bits(32));
                        }
                    }
                }
            }
        }
        // Every prefix that holds a pair steps whenever the window holds the
        // prefix (after the refill, where there is a stream to refill from).
        let held = PAIRS.iter().filter(|pair| pair.2 > 0).count() as u32;
        assert!(held > 3000 && steps > held * 3 * 3 * (64 - PAIR_BITS));
    }

    #[test]
    fn byte_len_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.byte_len(), 0);
        w.put_bit(true);
        assert_eq!(w.byte_len(), 1);
        w.put_bits(0, 7);
        assert_eq!(w.byte_len(), 1);
        w.put_bit(true);
        assert_eq!(w.byte_len(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_ue_roundtrip(values in proptest::collection::vec(0u32..1_000_000, 0..200)) {
            let mut w = BitWriter::new();
            for &v in &values {
                w.put_ue(v);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &v in &values {
                prop_assert_eq!(r.get_ue().unwrap(), v);
            }
        }

        #[test]
        fn prop_se_roundtrip(values in proptest::collection::vec(-500_000i32..500_000, 0..200)) {
            let mut w = BitWriter::new();
            for &v in &values {
                w.put_se(v);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &v in &values {
                prop_assert_eq!(r.get_se().unwrap(), v);
            }
        }

        #[test]
        fn prop_mixed_roundtrip(ops in proptest::collection::vec((0u32..3, 0u32..100_000), 0..100)) {
            let mut w = BitWriter::new();
            for &(kind, v) in &ops {
                match kind {
                    0 => w.put_bits(v & 0xFF, 8),
                    1 => w.put_ue(v),
                    _ => w.put_se(v as i32 - 50_000),
                }
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &(kind, v) in &ops {
                match kind {
                    0 => prop_assert_eq!(r.get_bits(8).unwrap(), v & 0xFF),
                    1 => prop_assert_eq!(r.get_ue().unwrap(), v),
                    _ => prop_assert_eq!(r.get_se().unwrap(), v as i32 - 50_000),
                }
            }
        }
    }
}
