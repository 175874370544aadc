//! LEB128 varints and zigzag signed mapping.
//!
//! Used for stream headers, match distances, and the Cascaded compressor's
//! delta stage (zigzag turns small signed deltas into small unsigned codes).

use crate::error::CodecError;

/// Appends `value` as an unsigned LEB128 varint.
pub fn write_uvarint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a `uvarint(len)`-prefixed payload to `out`: `emit` writes the
/// payload straight onto the end of `out`, then the length prefix is
/// inserted in front of it with one in-place rotation — no scratch buffer,
/// and no allocation when `out` has a spare varint's worth of capacity.
pub fn write_len_prefixed<R>(out: &mut Vec<u8>, emit: impl FnOnce(&mut Vec<u8>) -> R) -> R {
    let start = out.len();
    let r = emit(out);
    let end = out.len();
    write_uvarint(out, (end - start) as u64);
    let prefix_len = out.len() - end;
    out[start..].rotate_right(prefix_len);
    r
}

/// Reads an unsigned LEB128 varint, advancing `pos`.
pub fn read_uvarint(data: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos).ok_or(CodecError::UnexpectedEof)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(CodecError::Corrupt("varint overflows u64"));
        }
        value |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::Corrupt("varint too long"));
        }
    }
}

/// Zigzag-maps a signed value to unsigned (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a signed varint (zigzag + LEB128).
pub fn write_ivarint(out: &mut Vec<u8>, value: i64) {
    write_uvarint(out, zigzag(value));
}

/// Reads a signed varint.
pub fn read_ivarint(data: &[u8], pos: &mut usize) -> Result<i64, CodecError> {
    Ok(unzigzag(read_uvarint(data, pos)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_roundtrip_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn len_prefixed_matches_prefix_then_payload() {
        for len in [0usize, 1, 127, 128, 20_000] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
            let mut want = vec![9, 8, 7];
            write_uvarint(&mut want, len as u64);
            want.extend_from_slice(&payload);

            let mut got = vec![9, 8, 7];
            let r = write_len_prefixed(&mut got, |out| {
                out.extend_from_slice(&payload);
                len
            });
            assert_eq!(r, len);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn small_values_take_one_byte() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_uvarint(&mut buf, 128);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn zigzag_mapping() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        for v in [-1_000_000i64, -1, 0, 1, 7, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn ivarint_roundtrip() {
        for v in [-5_000_000i64, -1, 0, 1, 42, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            write_ivarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_ivarint(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn truncated_varint_errors() {
        let buf = vec![0x80, 0x80];
        let mut pos = 0;
        assert_eq!(read_uvarint(&buf, &mut pos), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn overlong_varint_rejected() {
        let buf = vec![0x80; 11];
        let mut pos = 0;
        assert!(read_uvarint(&buf, &mut pos).is_err());
    }
}
