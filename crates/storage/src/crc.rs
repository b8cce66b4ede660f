//! CRC-32 (IEEE 802.3) for write-ahead-log record integrity.
//!
//! A torn tail must be distinguishable from a corrupt middle; each WAL
//! record carries a CRC of its body so replay can stop at the first record
//! that fails the check.

/// Computes the CRC-32/IEEE checksum of `data`.
///
/// # Examples
///
/// ```
/// use repdir_storage::crc32;
///
/// // The standard check value for "123456789".
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// The checksum of each single byte, so a buffer costs one lookup per byte
/// rather than eight shift-and-xor steps: a checkpoint record is the whole
/// state, and it is checksummed on the commit path.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[byte] = crc;
        byte += 1;
    }
    table
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"hello wal record".to_vec();
        let before = crc32(&data);
        data[3] ^= 0x10;
        assert_ne!(crc32(&data), before);
    }

    #[test]
    fn detects_truncation() {
        let data = b"some record body";
        assert_ne!(crc32(data), crc32(&data[..data.len() - 1]));
    }
}
