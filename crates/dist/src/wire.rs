//! Wire codec: the fixed-layout little-endian bytes a task's values cross
//! the [`ChannelTransport`](crate::ChannelTransport) as.
//!
//! Every value [`MapReduce::run`](crate::MapReduce::run) ships implements
//! [`Wire`]. The layout has no tags or names, only the values:
//!
//! | type | bytes |
//! |------|-------|
//! | `u8`, `u32`, `u64` | the integer, little-endian |
//! | `usize` | as a `u64` |
//! | `f64` | `to_bits` as a `u64`, so NaN payloads, ±inf and −0.0 survive |
//! | `String` | a `u64` byte count, then the UTF-8 bytes |
//! | `(A, B)`, `(A, B, C)` | each field in order |
//! | `Vec<T>` | a `u64` element count, then each element |
//! | [`Matrix`] | `rows`, `cols` (as `u64`), then the row-major data |
//! | [`DenseTensor`] | the dims as a `Vec<usize>`, then the row-major data |
//! | [`TaskOutcome<T>`] | tag `0` then the `T`, or tag `1` then the error `String` |
//!
//! A `(u64, f64)` join cell is 16 bytes. Decoding is total: a length is
//! checked against the bytes that remain before anything is reserved, a
//! shape whose element count overflows is rejected, trailing bytes are an
//! error, and nothing panics. The codec carries no checksum of its own:
//! the [`TaskEnvelope`](crate::TaskEnvelope) checksum is verified before a
//! payload byte is decoded.

use m2td_linalg::Matrix;
use m2td_tensor::DenseTensor;
use std::fmt;

/// Why a payload did not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for WireError {}

fn invalid<T>(why: impl Into<String>) -> Result<T, WireError> {
    Err(WireError(why.into()))
}

/// A value with a fixed-layout little-endian wire form.
pub trait Wire: Sized {
    /// The fewest bytes any value of the type encodes to (at least 1), so
    /// a length prefix can be checked against the bytes that remain.
    const MIN_BYTES: usize;

    /// Appends the wire form of `self` to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Takes one value off the front of `input`, advancing it.
    fn take(input: &mut &[u8]) -> Result<Self, WireError>;
}

/// The wire form of `value`.
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

/// Decodes a whole payload: exactly one `T` and no byte after it.
pub fn decode<T: Wire>(mut bytes: &[u8]) -> Result<T, WireError> {
    let value = T::take(&mut bytes)?;
    if !bytes.is_empty() {
        return invalid(format!("{} trailing bytes", bytes.len()));
    }
    Ok(value)
}

/// Appends `items` in the wire form of a `Vec<T>` holding them.
pub fn put_slice<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    out.reserve(8 + items.len() * T::MIN_BYTES);
    (items.len() as u64).put(out);
    for item in items {
        item.put(out);
    }
}

/// Splits `n` bytes off the front of `input`.
fn take_bytes<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if input.len() < n {
        return invalid(format!("needs {n} bytes, {} remain", input.len()));
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

/// Reads a `u64` count of items at least `min_bytes` long each, refusing
/// one that the remaining bytes cannot hold.
fn take_count(input: &mut &[u8], min_bytes: usize) -> Result<usize, WireError> {
    let n = u64::take(input)?;
    match usize::try_from(n) {
        Ok(n) if n <= input.len() / min_bytes => Ok(n),
        _ => invalid(format!(
            "length {n} exceeds the {} bytes that remain",
            input.len()
        )),
    }
}

/// Takes `n` `f64`s; the caller checked `n <= input.len() / 8`.
fn take_f64s(input: &mut &[u8], n: usize) -> Result<Vec<f64>, WireError> {
    Ok(take_bytes(input, 8 * n)?
        .chunks_exact(8)
        .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8-byte chunk"))))
        .collect())
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();

            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn take(input: &mut &[u8]) -> Result<Self, WireError> {
                let bytes = take_bytes(input, Self::MIN_BYTES)?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("exact length")))
            }
        }
    )*};
}

wire_int!(u8, u32, u64);

impl Wire for usize {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }

    fn take(input: &mut &[u8]) -> Result<Self, WireError> {
        let v = u64::take(input)?;
        usize::try_from(v).or_else(|_| invalid(format!("{v} does not fit in a usize")))
    }
}

impl Wire for f64 {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }

    fn take(input: &mut &[u8]) -> Result<Self, WireError> {
        u64::take(input).map(f64::from_bits)
    }
}

impl Wire for String {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u64).put(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn take(input: &mut &[u8]) -> Result<Self, WireError> {
        let n = take_count(input, 1)?;
        let bytes = take_bytes(input, n)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_string()),
            Err(e) => invalid(format!("string is not UTF-8: {e}")),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;

    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    fn take(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::take(input)?, B::take(input)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES + C::MIN_BYTES;

    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }

    fn take(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::take(input)?, B::take(input)?, C::take(input)?))
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        put_slice(self, out);
    }

    fn take(input: &mut &[u8]) -> Result<Self, WireError> {
        let n = take_count(input, T::MIN_BYTES)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::take(input)?);
        }
        Ok(items)
    }
}

impl Wire for Matrix {
    const MIN_BYTES: usize = 16;

    fn put(&self, out: &mut Vec<u8>) {
        out.reserve(16 + 8 * self.as_slice().len());
        self.rows().put(out);
        self.cols().put(out);
        for v in self.as_slice() {
            v.put(out);
        }
    }

    fn take(input: &mut &[u8]) -> Result<Self, WireError> {
        let (rows, cols) = (usize::take(input)?, usize::take(input)?);
        let n = match rows.checked_mul(cols) {
            Some(n) if n <= input.len() / 8 => n,
            _ => {
                return invalid(format!(
                    "a {rows}x{cols} matrix exceeds the remaining bytes"
                ))
            }
        };
        let data = take_f64s(input, n)?;
        Matrix::from_vec(rows, cols, data).or_else(|e| invalid(format!("invalid matrix: {e}")))
    }
}

impl Wire for DenseTensor {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        out.reserve(8 + 8 * (self.dims().len() + self.as_slice().len()));
        put_slice(self.dims(), out);
        for v in self.as_slice() {
            v.put(out);
        }
    }

    fn take(input: &mut &[u8]) -> Result<Self, WireError> {
        let dims = Vec::<usize>::take(input)?;
        // The element count, multiplied from the last mode as the strides
        // are, so no stride of an accepted shape overflows either.
        let count = dims.iter().rev().try_fold(1usize, |n, &d| n.checked_mul(d));
        let n = match count {
            Some(n) if n <= input.len() / 8 => n,
            _ => return invalid(format!("a {dims:?} tensor exceeds the remaining bytes")),
        };
        let data = take_f64s(input, n)?;
        DenseTensor::from_vec(&dims, data).or_else(|e| invalid(format!("invalid tensor: {e}")))
    }
}

/// A reduce task's result as it crosses the transport: either the value
/// or the rendered error (typed errors do not serialize).
#[derive(Debug, Clone, PartialEq)]
pub enum TaskOutcome<T> {
    /// The task's value.
    Ok(T),
    /// The task failed; the rendered error.
    Fail(String),
}

impl<T: Wire> Wire for TaskOutcome<T> {
    // The tag; either branch adds at least one more byte.
    const MIN_BYTES: usize = 2;

    fn put(&self, out: &mut Vec<u8>) {
        match self {
            TaskOutcome::Ok(v) => {
                out.push(0);
                v.put(out);
            }
            TaskOutcome::Fail(s) => {
                out.push(1);
                s.put(out);
            }
        }
    }

    fn take(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::take(input)? {
            0 => T::take(input).map(TaskOutcome::Ok),
            1 => String::take(input).map(TaskOutcome::Fail),
            tag => invalid(format!(
                "task outcome tag {tag} is neither 0 (ok) nor 1 (fail)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values JSON cannot carry: NaN with a payload, ±inf, −0.0, a
    /// subnormal, and `u64`s at and above 2⁶³.
    fn awkward() -> Vec<(u64, f64)> {
        vec![
            (1 << 63, f64::from_bits(0x7ff8_0000_dead_beef)),
            (u64::MAX, f64::INFINITY),
            (0, f64::NEG_INFINITY),
            (7, -0.0),
            (u64::MAX - 1, f64::from_bits(1)),
        ]
    }

    #[test]
    fn values_round_trip_bit_for_bit() {
        let cells = awkward();
        let back: Vec<(u64, f64)> = decode(&encode(&cells)).unwrap();
        let bits = |c: &[(u64, f64)]| c.iter().map(|&(k, v)| (k, v.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&cells));
        // 16 bytes a cell after the count.
        assert_eq!(encode(&cells).len(), 8 + 16 * cells.len());

        let words = ("é\n\"".to_string(), 3u8, u32::MAX);
        assert_eq!(decode::<(String, u8, u32)>(&encode(&words)).unwrap(), words);
        let m = Matrix::from_fn(2, 3, |i, j| i as f64 - j as f64 * 0.5);
        let t = DenseTensor::from_fn(&[2, 1, 3], |i| (i[0] * 3 + i[2]) as f64);
        let outcomes = (
            TaskOutcome::Ok(vec![m.clone(), m]),
            TaskOutcome::<DenseTensor>::Ok(t),
        );
        let back: (TaskOutcome<Vec<Matrix>>, TaskOutcome<DenseTensor>) =
            decode(&encode(&outcomes)).unwrap();
        assert_eq!(back, outcomes);
        let fail = TaskOutcome::<u64>::Fail("core error: rank 0".to_string());
        assert_eq!(decode::<TaskOutcome<u64>>(&encode(&fail)).unwrap(), fail);
    }

    #[test]
    fn trailing_and_missing_bytes_are_errors() {
        let mut bytes = encode(&(3u64, 0.5f64));
        assert!(decode::<(u64, f64)>(&bytes[..15]).is_err());
        bytes.push(0);
        assert!(decode::<(u64, f64)>(&bytes).is_err());
        assert!(decode::<u8>(&[]).is_err());
    }

    #[test]
    fn malformed_values_are_rejected() {
        assert!(decode::<String>(&[2, 0, 0, 0, 0, 0, 0, 0, 0xc3, 0x28]).is_err());
        assert!(decode::<TaskOutcome<u8>>(&[2, 0]).is_err());
        // A matrix whose rows and cols need more data than follows.
        let mut m = encode(&(2usize, 2usize));
        m.extend_from_slice(&encode(&1.0f64));
        assert!(decode::<Matrix>(&m).is_err());
    }
}
